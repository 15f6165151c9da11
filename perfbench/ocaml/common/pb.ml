(* Shared plumbing for the workload programs.

   A program prints one JSON object per line on stdout; run.py reads the
   stream, checks every "run" record against the pinned outcomes and
   turns the other records into metrics.  Record kinds:

   - start  {variant, traced}
   - setup  {warmup, s, reference_s}: one set-up repetition
   - run    {key, ...}: one checked operation's simulated outcome
   - unit   {traced, warmup, wall_s, reference_s, events, sim_s,
             deliveries, schedules, alloc_bytes, run_ms}

   Times are measured seconds with the reference kernel's time left
   out; reference_s is the kernel time they are normalised by.
   - layer  {metrics}: per-layer figures of one traced unit
   - span   {id, parent, name, start, end}: the traced-run ledger
   - error  {message}: an exception escaped a set-up or a unit
   - end    {peak_heap_mb}

   Only public library functions are called, so the programs measure
   what a user of the libraries pays. *)

open Mmcast

(* [variant] is the input variant run.py derives from the benchmark
   seed; a workload's inputs are a function of it alone. *)
type args = {
  variant : int;
  seconds : float;
  traced : bool;
}

let parse_args () =
  let variant = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--variant", Arg.Set_int variant, "N input variant");
      ("--seconds", Arg.Set_float seconds, "S measuring time (0: one unchecked unit, for pinning)");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --variant N --seconds S --trace 0|1";
  { variant = !variant; seconds = !seconds; traced = !trace <> 0 }

let now = Unix.gettimeofday

let emit kind fields =
  print_string (Obs.Json.to_string (Obs.Json.Obj (("kind", Obs.Json.String kind) :: fields)));
  print_char '\n'

let num x = Obs.Json.float x
let int n = Obs.Json.Int n
let str s = Obs.Json.String s

(* ---- the host-speed reference ---- *)

(* The hosts this benchmark runs on switch, for seconds to minutes at a
   time, between speeds up to 1.6x apart for memory-heavy code such as
   the simulator, while an arithmetic loop keeps its speed.  A median
   over a 30 s run depends on how much of the run the host spent in
   each state, so measured seconds alone spread across runs by more
   than any useful bound.

   Every timed stretch is therefore cut into slices of tens of
   milliseconds, and before each slice ([checkpoint]) a fixed,
   allocation-free, memory-bound reference [kernel] runs.  Its time is
   in no slice; the records carry it, and run.py reports each unit's
   times scaled by (nominal kernel time / the unit's mean kernel time).
   The kernel touches no OCaml heap (its buffers are bigarrays
   allocated once), so its time does not depend on what the program
   under test allocates or keeps live. *)

module A = Bigarray.Array1

(* A 2 MB ring written sequentially, as allocation writes the minor
   heap, and a 32 MB region read and written at pseudo-random places,
   as the simulator's tables and major heap are: about 20 ms. *)
let ring = A.create Bigarray.int Bigarray.c_layout (1 lsl 18)
let region = A.create Bigarray.int Bigarray.c_layout (1 lsl 22)

let () =
  A.fill ring 0;
  A.fill region 0

let kernel_steps = 640_000

let kernel () =
  let x = ref 12345 and acc = ref 0 in
  let rm = A.dim ring - 1 and gm = A.dim region - 1 in
  for i = 0 to kernel_steps - 1 do
    A.unsafe_set ring (i land rm) i;
    A.unsafe_set ring ((i + 1) land rm) !acc;
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land gm in
    let v = A.unsafe_get region j in
    acc := !acc + v;
    A.unsafe_set region j (v + i)
  done;
  !acc

(* [elapsed] is a wall clock that stops while the kernel runs. *)
let slice_t0 = ref (now ())
let elapsed_base = ref 0.0
let elapsed () = !elapsed_base +. (now () -. !slice_t0)

(* Kernel times since the current unit started, and the latest one. *)
let kernel_sum = ref 0.0
let kernel_count = ref 0
let last_kernel = ref 0.0

(* End the current slice, run the kernel, start the next slice. *)
let checkpoint () =
  let t = now () in
  elapsed_base := !elapsed_base +. (t -. !slice_t0);
  ignore (Sys.opaque_identity (kernel ()));
  let t1 = now () in
  last_kernel := t1 -. t;
  kernel_sum := !kernel_sum +. !last_kernel;
  incr kernel_count;
  slice_t0 := t1

(* ---- traced-run ledger ---- *)

type span = {
  sp_id : int;
  sp_parent : int;
  sp_name : string;
  sp_start : float;
  mutable sp_end : float;
}

let tracing = ref false
let spans = ref []
let open_spans = ref []
let next_span = ref 0

(* [span name f] records [f]'s wall interval under the innermost open
   span while a traced unit runs; otherwise it is [f ()].  Spans are
   only opened on the calling domain. *)
let span name f =
  if not !tracing then f ()
  else begin
    let sp =
      { sp_id = !next_span;
        sp_parent = (match !open_spans with p :: _ -> p.sp_id | [] -> -1);
        sp_name = name;
        sp_start = elapsed ();
        sp_end = nan }
    in
    incr next_span;
    spans := sp :: !spans;
    open_spans := sp :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        sp.sp_end <- elapsed ();
        open_spans := List.tl !open_spans)
      f
  end

(* Per-layer figures of the current traced unit, summed by name. *)
let layer : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace layer name (v +. Option.value (Hashtbl.find_opt layer name) ~default:0.0)

let addi name n = add name (float_of_int n)

let profile sim = if !tracing then Engine.Sim.enable_profiling ~clock:now sim

(* Charge a profiled run's callback time to the engine figures;
   [run_s] is the wall time of the run_until call that drove it. *)
let absorb_profile sim ~run_s =
  let cb = ref 0.0 in
  List.iter
    (fun (cat, (p : Engine.Sim.category_profile)) ->
      addi ("engine.events." ^ cat) p.Engine.Sim.cat_events;
      add ("engine.cb_s." ^ cat) p.Engine.Sim.cat_seconds;
      cb := !cb +. p.Engine.Sim.cat_seconds)
    (Engine.Sim.profile sim);
  addi "engine.events" (Engine.Sim.events_executed sim);
  add "engine.dispatch_s" (run_s -. !cb);
  add "engine.run_s" run_s

(* Control-message census of one run, for the pins and the pimdm/mld/
   mipv6 layer figures. *)
let control_list (c : Metrics.control_counts) =
  [ c.Metrics.hellos; c.joins; c.prunes; c.grafts; c.graft_acks; c.asserts;
    c.state_refreshes; c.queries; c.reports; c.dones; c.binding_updates;
    c.binding_acks; c.router_advertisements; c.heartbeats ]

let absorb_metrics m =
  let c = Metrics.control_counts m in
  addi "pimdm.ctrl_msgs"
    (c.Metrics.hellos + c.joins + c.prunes + c.grafts + c.graft_acks + c.asserts
   + c.state_refreshes);
  addi "mld.ctrl_msgs" (c.Metrics.queries + c.reports + c.dones);
  addi "mipv6.binding_updates" c.Metrics.binding_updates;
  addi "mipv6.tunnelled_bytes" (Metrics.bytes m Metrics.Data_tunnelled);
  addi "mipv6.data_bytes"
    (Metrics.bytes m Metrics.Data_tunnelled + Metrics.bytes m Metrics.Data_native)

let absorb_net net =
  let s = Net.Network.total_stats net in
  addi "net.tx_packets" s.Net.Network.packets;
  addi "net.tx_bytes" s.Net.Network.bytes;
  addi "net.drops" (Net.Network.drops net);
  addi "ipv6.malformed_drops" (Net.Network.total_malformed_drops net)

let absorb_delivery ~sent ~delivered ~duplicates =
  addi "mmcast.sent" sent;
  addi "mmcast.delivered" delivered;
  addi "mmcast.duplicates" duplicates

(* ---- the unit loop ---- *)

type work = {
  events : int;  (** simulator events executed *)
  sim_s : float;  (** simulated seconds covered *)
  deliveries : int;  (** fresh datagrams delivered to receivers *)
  schedules : int;  (** simulation runs (each one schedule) *)
  run_ms : float list;  (** per-run wall samples *)
  untallied_alloc : float;
      (** bytes allocated by parts of the unit whose events [events]
          does not count; left out of the unit's allocation so that
          bytes per event divides like by like *)
}

let peak_heap_mb () =
  (* VmHWM: the process's peak resident set, every domain included. *)
  let kb =
    try
      let ic = open_in "/proc/self/status" in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec loop () =
            match input_line ic with
            | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
            | _ -> loop ()
          in
          loop ())
    with _ -> 0
  in
  (* The reference kernel's buffers are resident from start-up on; they
     are left out so that the figure is the program's own. *)
  let buffers = (A.dim ring + A.dim region) * 8 in
  if kb > 0 then float_of_int ((kb * 1024) - buffers) /. 1048576.0
  else float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Bytes allocated so far.  Unlike [Gc.allocated_bytes], which counts
   the calling domain only, [quick_stat] includes the counters of
   domains that have terminated, such as a finished pool's workers. *)
let allocated () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words) *. float_of_int (Sys.word_size / 8)

let run_unit ~args ~traced ~warmup ~work ~layers input =
  Gc.full_major ();
  let s0 = Gc.quick_stat () and a0 = allocated () in
  Hashtbl.reset layer;
  tracing := traced;
  kernel_sum := 0.0;
  kernel_count := 0;
  checkpoint ();
  let t0 = elapsed () in
  let result = span "unit" (fun () -> work args input) in
  let wall = elapsed () -. t0 in
  let s1 = Gc.quick_stat () and a1 = allocated () in
  if traced then begin
    layers args input;
    addi "gc.minor" (s1.Gc.minor_collections - s0.Gc.minor_collections);
    addi "gc.major" (s1.Gc.major_collections - s0.Gc.major_collections);
    add "gc.promoted_bytes"
      ((s1.Gc.promoted_words -. s0.Gc.promoted_words) *. float_of_int (Sys.word_size / 8));
    add "gc.top_heap_mb"
      (float_of_int (s1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
    emit "layer"
      [ ("metrics",
          Obs.Json.Obj
            (List.sort compare
               (Hashtbl.fold (fun k v acc -> (k, num v) :: acc) layer []))) ]
  end;
  tracing := false;
  emit "unit"
    [ ("traced", Obs.Json.Bool traced);
      ("warmup", Obs.Json.Bool warmup);
      ("wall_s", num wall);
      ("reference_s", num (!kernel_sum /. float_of_int !kernel_count));
      ("events", int result.events);
      ("sim_s", num result.sim_s);
      ("deliveries", int result.deliveries);
      ("schedules", int result.schedules);
      ("alloc_bytes", num (a1 -. a0 -. result.untallied_alloc));
      ("run_ms", Obs.Json.List (List.map num result.run_ms)) ];
  List.length result.run_ms

let min_units = 3
let min_samples = 20

(* Set-up repetitions before each measured unit, in one slice: at
   least three, and at least 50 ms of them, so that a set-up of a
   millisecond or two is mostly timed with warm caches rather than
   right after the reference kernel.  Spreading them over the whole
   run, rather than timing them in a burst at start-up, exposes them to
   the same host states as the units. *)
let min_setups_per_unit = 3
let min_setup_s_per_unit = 0.05

let main ~setup ~work ?(layers = fun _ _ -> ()) () =
  let args = parse_args () in
  let t_start = now () in
  emit "start" [ ("variant", int args.variant); ("traced", Obs.Json.Bool args.traced) ];
  let failed = ref false in
  let guarded f =
    try Some (f ())
    with e ->
      failed := true;
      emit "error" [ ("message", str (Printexc.to_string e)) ];
      None
  in
  (* Every repetition builds the same inputs; a unit runs on the latest. *)
  let timed_setup ~warmup () =
    let t0 = elapsed () in
    let x = setup args in
    emit "setup"
      [ ("warmup", Obs.Json.Bool warmup);
        ("s", num (elapsed () -. t0));
        ("reference_s", num !last_kernel) ];
    x
  in
  checkpoint ();
  (match guarded (timed_setup ~warmup:true) with
  | None -> ()
  | Some x when args.seconds <= 0.0 ->
    (* Pinning mode: one unit's outcomes, nothing timed. *)
    ignore (guarded (fun () -> run_unit ~args ~traced:false ~warmup:true ~work ~layers x))
  | Some x ->
    (* The warm-up unit lets the heap grow and lazy set-up finish; its
       outcomes are checked but its time is not reported. *)
    ignore (guarded (fun () -> run_unit ~args ~traced:false ~warmup:true ~work ~layers x));
    let input = ref x and deadline = t_start +. args.seconds in
    let n = ref 0 and samples = ref 0 and last = ref 0.0 in
    (* Untraced runs also keep going until there are 20 per-run
       samples, so the tail percentile (1 - 10/n) is at least p50.  The
       first exception ends the run: it has failed whatever it measures. *)
    while
      (not !failed)
      && (!n < min_units * (if args.traced then 2 else 1)
         || ((not args.traced) && !samples < min_samples)
         || now () +. !last < deadline)
    do
      let t0 = now () and k = ref 0 in
      checkpoint ();
      let t1 = now () in
      while
        (not !failed) && (!k < min_setups_per_unit || now () -. t1 < min_setup_s_per_unit)
      do
        Option.iter (fun y -> input := y) (guarded (timed_setup ~warmup:false));
        incr k
      done;
      (* A traced run alternates untraced and traced units so the
         tracing overhead is measured in the same process. *)
      let traced = args.traced && !n mod 2 = 1 in
      if not !failed then
        Option.iter
          (fun k -> samples := !samples + k)
          (guarded (fun () -> run_unit ~args ~traced ~warmup:false ~work ~layers !input));
      last := now () -. t0;
      incr n
    done);
  List.iter
    (fun sp ->
      emit "span"
        [ ("id", int sp.sp_id); ("parent", int sp.sp_parent); ("name", str sp.sp_name);
          ("start", num sp.sp_start); ("end", num sp.sp_end) ])
    (List.rev !spans);
  emit "end" [ ("peak_heap_mb", num (peak_heap_mb ())) ]

(* ---- the Figure-1 stream shared by fig1-stream and fig1-observed ---- *)

(* The protocol RNG seed is the input's only effect on a Figure-1 run:
   it changes which schedule is realised, not how much work a run is. *)
let fig1_seed args = 42 + args.variant

let fig1_rate_hz = 200.0
let fig1_bytes = 500

type fig1_shape = {
  horizon : float;  (** simulated seconds per run *)
  first_move : float;
  move_period : float;
  slice : float;  (** simulated seconds per measured slice *)
}

(* Receivers join at 1 s and S streams from 2 s to a second before the
   horizon; R3 (homed on L4) tours L6 -> L1 -> L4 -> ... so every
   approach exercises tunnels, grafts and prunes. *)
let fig1_build shape ~seed approach =
  let spec = { Scenario.default_spec with Scenario.approach; seed } in
  let sc = Scenario.paper_figure1 spec in
  let metrics = Metrics.attach sc.Scenario.net in
  Traffic.at sc 1.0 (fun () -> Scenario.subscribe_receivers sc Scenario.group);
  ignore
    (Traffic.cbr sc (Scenario.host sc "S") ~group:Scenario.group ~from_t:2.0
       ~until:(shape.horizon -. 1.0) ~interval:(1.0 /. fig1_rate_hz) ~bytes:fig1_bytes);
  let r3 = Scenario.host sc "R3" in
  let tour = [| "L6"; "L1"; "L4" |] in
  let rec roam k t =
    if t < shape.horizon then begin
      let link = Scenario.link sc tour.(k mod 3) in
      Traffic.at sc t (fun () -> Host_stack.move_to r3 link);
      roam (k + 1) (t +. shape.move_period)
    end
  in
  roam 0 shape.first_move;
  (sc, metrics)

let receivers sc =
  List.filter (fun (name, _) -> String.length name > 0 && name.[0] = 'R') sc.Scenario.hosts

(* Run a built Figure-1 scenario to the horizon and emit its checked
   outcome.  Returns (events, fresh deliveries, run wall ms). *)
let fig1_run shape ~approach (sc, metrics) =
  profile sc.Scenario.sim;
  let t0 = elapsed () in
  (* Run to the horizon a slice at a time; the engine processes exactly
     the events it would in one run_until call. *)
  span "run_until" (fun () ->
      let rec go t =
        if t < shape.horizon then begin
          let t' = Float.min shape.horizon (t +. shape.slice) in
          checkpoint ();
          Scenario.run_until sc t';
          go t'
        end
      in
      go 0.0);
  let run_s = elapsed () -. t0 in
  let sum f = List.fold_left (fun acc (_, h) -> acc + f h ~group:Scenario.group) 0 (receivers sc) in
  let delivered = sum Host_stack.received_count and duplicates = sum Host_stack.duplicate_count in
  let sent = Host_stack.data_sent (Scenario.host sc "S") in
  let events = Engine.Sim.events_executed sc.Scenario.sim in
  let net = sc.Scenario.net in
  let stats = Net.Network.total_stats net in
  emit "run"
    [ ("key", str (Printf.sprintf "approach%d" (Approach.number approach)));
      ("digest", str (Engine.Trace.digest (Net.Network.trace net)));
      ("events", int events); ("sent", int sent); ("delivered", int delivered);
      ("duplicates", int duplicates); ("tx_packets", int stats.Net.Network.packets);
      ("tx_bytes", int stats.Net.Network.bytes);
      ("control", Obs.Json.List (List.map int (control_list (Metrics.control_counts metrics)))) ];
  if !tracing then begin
    absorb_profile sc.Scenario.sim ~run_s;
    absorb_metrics metrics;
    absorb_net net;
    absorb_delivery ~sent ~delivered ~duplicates
  end;
  (events, delivered, run_s *. 1000.0)
