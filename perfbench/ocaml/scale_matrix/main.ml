(* scale-matrix: the generated-topology matrix under the invariant
   monitor, fanned over two domains.  Control-plane heavy: the monitor's
   sampling, scenario generation and build, and the pool dominate. *)

open Mmcast

let jobs = 2

(* Three seeds of each model at 25 routers: 24 (cell, approach) runs
   per matrix, about four seconds on two domains.  A 50-router cell
   would make a unit half as long again and its four runs, each four
   times a 25-router run, would be the only samples the tail
   percentile could land on: run_tail_ms would then read the lowest
   few of a dozen noisy samples.  The matrix is the same for every
   input seed: generated topologies differ in cost by more than any
   bound the benchmark can hold, so drawing cells from the seed would
   make the figures spread across seeds. *)
let cells = Scale.Suite.cells ~sizes:[ 25 ] ~models:[ `Waxman; `Pref ] ~seeds:3 ~base_seed:1000 ()

(* Set-up generates and validates every cell's descriptor and builds
   its network once. *)
let setup _args =
  List.iter
    (fun c ->
      let d = Scale.Suite.desc_of c in
      (match Scale.Desc.validate d with Ok () -> () | Error m -> failwith m);
      ignore
        (Scenario.build (Scale.Runner.spec_for d Approach.local_membership)
           ~links:d.Scale.Desc.d_links ~routers:d.Scale.Desc.d_routers
           ~hosts:d.Scale.Desc.d_hosts))
    cells;
  cells

(* One Suite.run call per cell, each a measured slice: the cell's four
   approaches fan out over the pool. *)
let work _args cells =
  let pool_s = ref 0.0 in
  let rows =
    List.concat_map
      (fun c ->
        Pb.checkpoint ();
        let t0 = Pb.elapsed () in
        let rows = Pb.span "suite.run" (fun () -> Scale.Suite.run ~jobs [ c ]) in
        pool_s := !pool_s +. (Pb.elapsed () -. t0);
        rows)
      cells
  in
  let events = ref 0 and deliveries = ref 0 and sim_s = ref 0.0 and run_ms = ref [] in
  let busy = ref 0.0 and runs = ref 0 in
  List.iter
    (fun (r : Scale.Suite.row) ->
      let d = Scale.Suite.desc_of r.Scale.Suite.r_cell in
      List.iter
        (fun (o : Scale.Runner.outcome) ->
          Pb.emit "run"
            [ ( "key",
                Pb.str
                  (Printf.sprintf "%s/approach%d" r.Scale.Suite.r_name
                     (Approach.number o.Scale.Runner.out_approach)) );
              ("desc", Pb.str r.Scale.Suite.r_digest);
              ("digest", Pb.str o.Scale.Runner.out_digest);
              ("events", Pb.int o.Scale.Runner.out_events);
              ("sent", Pb.int o.Scale.Runner.out_sent);
              ("delivered", Pb.int o.Scale.Runner.out_delivered);
              ("duplicates", Pb.int o.Scale.Runner.out_duplicates);
              ("samples", Pb.int o.Scale.Runner.out_samples);
              ("violations", Pb.int (List.length o.Scale.Runner.out_violations)) ];
          incr runs;
          events := !events + o.Scale.Runner.out_events;
          deliveries := !deliveries + o.Scale.Runner.out_delivered;
          sim_s := !sim_s +. d.Scale.Desc.d_duration;
          busy := !busy +. o.Scale.Runner.out_wall_s;
          run_ms := (o.Scale.Runner.out_wall_s *. 1000.0) :: !run_ms)
        r.Scale.Suite.r_outcomes)
    rows;
  if !Pb.tracing then begin
    Pb.addi "scale.cell_runs" !runs;
    Pb.add "parallel.busy_frac" (!busy /. (float_of_int jobs *. !pool_s))
  end;
  { Pb.events = !events;
    sim_s = !sim_s;
    deliveries = !deliveries;
    schedules = !runs;
    run_ms = List.rev !run_ms;
    untallied_alloc = 0.0 }

(* Traced only: regenerate the matrix's descriptors under a span, then
   re-drive the first Waxman and the first pref-attach cell under every
   approach with the engine profiler on. *)
let layers _args cells =
  let t0 = Pb.elapsed () in
  let descs = Pb.span "scale.gen" (fun () -> List.map Scale.Suite.desc_of cells) in
  Pb.add "scale.gen_s" (Pb.elapsed () -. t0);
  let first model =
    snd (List.find (fun (c, _) -> c.Scale.Suite.c_model = model) (List.combine cells descs))
  in
  let redrive = [ first `Waxman; first `Pref ] in
  List.iter
    (fun d ->
      List.iter
        (fun a ->
          let digest = Pb.span "redrive" (fun () -> Redrive.run d a) in
          Pb.emit "redrive"
            [ ( "key",
                Pb.str (Printf.sprintf "%s/approach%d" d.Scale.Desc.d_name (Approach.number a)) );
              ("digest", Pb.str digest) ])
        Approach.all)
    redrive

let () = Pb.main ~setup ~work ~layers ()
