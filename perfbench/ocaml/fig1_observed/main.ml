(* fig1-observed: fig1-stream's scenario, shortened, with the
   observability a `run --telemetry --capture` user turns on — wire
   check (every delivery encoded and decoded), an in-memory pcapng
   capture and a lineage collector — ending by serialising every
   artifact.  Its per-packet data plane is fig1-stream's, so the pair's
   per-event rates isolate codec and obs cost. *)

open Mmcast

(* Serialising the lineage costs about half a millisecond per streamed
   datagram (each one leaves ~75 spans), so the horizon is a twelfth
   of fig1-stream's to keep a unit near two seconds and the heap small;
   topology, rate and the roaming tour are the same. *)
let shape = { Pb.horizon = 10.0; first_move = 4.0; move_period = 2.0; slice = 1.0 }

let build ~seed a =
  let sc, metrics = Pb.fig1_build shape ~seed a in
  Net.Network.set_wire_check sc.Scenario.net true;
  let cap = Obs.Capture.attach sc.Scenario.net in
  let lin = Obs.Lineage.create ~approach:(Approach.name a) () in
  Obs.Lineage.attach lin sc.Scenario.sim;
  (sc, metrics, cap, lin)

let setup (args : Pb.args) =
  List.iter (fun a -> ignore (build ~seed:(Pb.fig1_seed args) a)) Approach.all

(* The last capture of a traced unit, replayed through the codec by
   [layers]. *)
let last_capture = ref Bytes.empty

(* Each export is a measured slice of its own. *)
let export name f =
  Pb.checkpoint ();
  let t0 = Pb.elapsed () in
  let n = Pb.span ("export." ^ name) f in
  if !Pb.tracing then Pb.add "obs.export_s" (Pb.elapsed () -. t0);
  n

let work (args : Pb.args) () =
  let events = ref 0 and deliveries = ref 0 and run_ms = ref [] in
  List.iter
    (fun a ->
      let sc, metrics, cap, lin =
        Pb.span "build" (fun () -> build ~seed:(Pb.fig1_seed args) a)
      in
      let e, d, ms = Pb.fig1_run shape ~approach:a (sc, metrics) in
      let json to_json () = Obs.Json.to_string (to_json lin) in
      let pcap = export "capture" (fun () -> Obs.Capture.contents cap) in
      let lineage = export "lineage" (json Obs.Lineage.to_json) in
      let catapult = export "catapult" (json Obs.Export.catapult_json) in
      let handovers = export "handovers" (json Obs.Export.handovers_json) in
      Pb.emit "run"
        [ ("key", Pb.str (Printf.sprintf "artifacts%d" (Approach.number a)));
          ("frames", Pb.int (Obs.Capture.frames cap));
          ("unencodable", Pb.int (Obs.Capture.unencodable cap));
          ("pcap_bytes", Pb.int (Bytes.length pcap));
          ("spans", Pb.int (Obs.Lineage.span_count lin));
          ("marks", Pb.int (Obs.Lineage.mark_count lin));
          ("lineage_bytes", Pb.int (String.length lineage));
          ("catapult_bytes", Pb.int (String.length catapult));
          ("handovers_bytes", Pb.int (String.length handovers));
          ("malformed_drops", Pb.int (Net.Network.total_malformed_drops sc.Scenario.net)) ];
      if !Pb.tracing then begin
        Pb.addi "obs.spans" (Obs.Lineage.span_count lin);
        Pb.addi "obs.marks" (Obs.Lineage.mark_count lin);
        Pb.addi "obs.capture_frames" (Obs.Capture.frames cap);
        Pb.addi "obs.capture_bytes" (Bytes.length pcap);
        last_capture := pcap
      end;
      events := !events + e;
      deliveries := !deliveries + d;
      run_ms := ms :: !run_ms)
    Approach.all;
  { Pb.events = !events;
    sim_s = 4.0 *. shape.Pb.horizon;
    deliveries = !deliveries;
    schedules = 4;
    run_ms = List.rev !run_ms;
    untallied_alloc = 0.0 }

(* Traced only: replay the captured frames through the codec, timing
   decode and re-encode separately; every frame must round-trip
   byte-exactly. *)
let layers _args () =
  match Obs.Pcapng.read !last_capture with
  | Error m -> failwith ("capture does not parse: " ^ m)
  | Ok c ->
    let frames = List.map (fun f -> f.Obs.Pcapng.frame_data) c.Obs.Pcapng.frames in
    let t0 = Pb.elapsed () in
    let packets = Pb.span "codec.decode" (fun () -> List.map Ipv6.Codec.decode_exn frames) in
    let t1 = Pb.elapsed () in
    let encoded = Pb.span "codec.encode" (fun () -> List.map Ipv6.Codec.encode packets) in
    let t2 = Pb.elapsed () in
    let n = List.length frames in
    if not (List.for_all2 Bytes.equal frames encoded) then failwith "codec round trip differs";
    Pb.addi "ipv6.frames" n;
    Pb.add "ipv6.decode_ns" ((t1 -. t0) *. 1e9 /. float_of_int (max 1 n));
    Pb.add "ipv6.encode_ns" ((t2 -. t1) *. 1e9 /. float_of_int (max 1 n))

let () = Pb.main ~setup ~work ~layers ()
