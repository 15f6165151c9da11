(* explore-pct: PCT schedule exploration of the clean 5-router twin
   under every approach (every schedule must pass), then find, shrink
   and replay the seeded graft bug of its broken twin.  Hundreds of
   short runs: per-run build, the decider and delay-exploration path,
   trace digests and the ddmin oracle dominate. *)

open Mmcast

let budget = 60
let sustain = 10.0
let hunt_budget = 20
let approach_of_repro = Approach.local_membership

type input = {
  clean : Scale.Desc.t;
  broken : Scale.Desc.t;
  canonical : (int * int) array;
      (** per approach: events and deliveries of the clean twin's
          canonical schedule, the per-schedule work estimate behind this
          workload's event and delivery rates (the explorer reports
          schedule counts only) *)
}

(* The PCT seed varies with the input seed; the scenarios are the
   pinned seed-42 twins whose minimal repro shape is known. *)
let pct_seed (args : Pb.args) = 7 + args.Pb.variant

(* Set-up generates both twins and runs the clean one's canonical
   schedule under every approach (checked like any other run). *)
let setup _args =
  let clean = Scale.Gen.clean ~seed:42 () and broken = Scale.Gen.broken ~seed:42 () in
  List.iter
    (fun d -> match Scale.Desc.validate d with Ok () -> () | Error m -> failwith m)
    [ clean; broken ];
  let canonical =
    Array.of_list
      (List.map
         (fun a ->
           let o = Scale.Runner.run ~sustain clean a in
           Pb.emit "run"
             [ ("key", Pb.str (Printf.sprintf "canonical/approach%d" (Approach.number a)));
               ("digest", Pb.str o.Scale.Runner.out_digest);
               ("events", Pb.int o.Scale.Runner.out_events);
               ("sent", Pb.int o.Scale.Runner.out_sent);
               ("delivered", Pb.int o.Scale.Runner.out_delivered);
               ("duplicates", Pb.int o.Scale.Runner.out_duplicates);
               ("samples", Pb.int o.Scale.Runner.out_samples);
               ("violations", Pb.int (List.length o.Scale.Runner.out_violations)) ];
           (o.Scale.Runner.out_events, o.Scale.Runner.out_delivered))
         Approach.all)
  in
  { clean; broken; canonical }

(* Find the seeded bug, shrink its schedule and its scenario, and
   replay both bundles.  The outcome is one checked operation. *)
let repro args input =
  let a = approach_of_repro in
  Pb.checkpoint ();
  let hunt =
    Pb.span "explore.hunt" (fun () ->
        Explore.Explorer.explore ~budget:hunt_budget ~sustain ~seed:(pct_seed args)
          ~strategy:(Explore.Strategy.pct ()) input.broken a)
  in
  let found, choices, sched_runs, sched_replays =
    match hunt.Explore.Explorer.ex_violation with
    | None -> (false, -1, 0, false)
    | Some (sc, _) -> (
      Pb.checkpoint ();
      match
        Pb.span "explore.minimize" (fun () ->
            Explore.Explorer.minimize ~sustain input.broken a sc)
      with
      | None -> (true, -1, 0, false)
      | Some (ss, bundle) ->
        ( true,
          List.length ss.Scale.Shrink.ss_sched.Scale.Runner.sched_choices,
          ss.Scale.Shrink.ss_runs,
          (Pb.checkpoint ();
           Pb.span "explore.replay" (fun () -> Scale.Repro.replay bundle <> [])) ))
  in
  Pb.checkpoint ();
  let t0 = Pb.elapsed () in
  let shrunk = Pb.span "explore.shrink" (fun () -> Scale.Shrink.minimize ~sustain input.broken a) in
  let shrink_s = Pb.elapsed () -. t0 in
  let shape, invariant, shrink_runs, replays =
    match shrunk with
    | None -> ("none", "none", 0, false)
    | Some r ->
      ( Scale.Desc.size_summary r.Scale.Shrink.sh_min,
        Check.Monitor.invariant_name r.Scale.Shrink.sh_invariant,
        r.Scale.Shrink.sh_runs,
        (Pb.checkpoint ();
         Pb.span "explore.replay" (fun () ->
             Scale.Repro.replay (Scale.Repro.of_shrink r ~sustain) <> [])) )
  in
  Pb.emit "run"
    [ ("key", Pb.str "repro");
      ("hunt_runs", Pb.int hunt.Explore.Explorer.ex_runs);
      ("found", Obs.Json.Bool found);
      ("choices", Pb.int choices);
      ("schedule_oracle_runs", Pb.int sched_runs);
      ("schedule_replays", Obs.Json.Bool sched_replays);
      ("shape", Pb.str shape);
      ("invariant", Pb.str invariant);
      ("shrink_oracle_runs", Pb.int shrink_runs);
      ("shrink_replays", Obs.Json.Bool replays) ];
  if !Pb.tracing then begin
    Pb.addi "explore.shrink_oracle_runs" (sched_runs + shrink_runs);
    Pb.add "explore.shrink_s" shrink_s
  end;
  hunt.Explore.Explorer.ex_runs + sched_runs + shrink_runs

let work args input =
  let runs = ref 0 and run_ms = ref [] and events = ref 0 and deliveries = ref 0 in
  List.iter
    (fun a ->
      Pb.checkpoint ();
      let last = ref (0, Pb.elapsed ()) in
      let o =
        Pb.span "explore.explore" (fun () ->
            Explore.Explorer.explore ~budget ~sustain ~seed:(pct_seed args)
              ~stop_on_violation:false ~strategy:(Explore.Strategy.pct ())
              ~on_progress:(fun p ->
                (* Progress arrives every 25 schedules: each block is a
                   measured slice and gives one per-run sample, the
                   block's mean. *)
                let r0, n0 = !last in
                let r1 = p.Explore.Explorer.pr_runs and n1 = Pb.elapsed () in
                if r1 > r0 then
                  run_ms := ((n1 -. n0) *. 1000.0 /. float_of_int (r1 - r0)) :: !run_ms;
                Pb.checkpoint ();
                last := (r1, Pb.elapsed ()))
              input.clean a)
      in
      let violated = Option.is_some o.Explore.Explorer.ex_violation in
      Pb.emit "run"
        [ ("key", Pb.str (Printf.sprintf "explore/approach%d" (Approach.number a)));
          ("runs", Pb.int o.Explore.Explorer.ex_runs);
          ("distinct", Pb.int o.Explore.Explorer.ex_distinct);
          ("violations", Pb.int (if violated then 1 else 0)) ];
      runs := !runs + o.Explore.Explorer.ex_runs;
      let e, d = input.canonical.(Approach.number a - 1) in
      events := !events + (e * o.Explore.Explorer.ex_runs);
      deliveries := !deliveries + (d * o.Explore.Explorer.ex_runs);
      if !Pb.tracing then begin
        Pb.addi "explore.runs" o.Explore.Explorer.ex_runs;
        Pb.addi "explore.distinct" o.Explore.Explorer.ex_distinct
      end)
    Approach.all;
  (* The repro's runs are on the broken twin and on shrunk scenarios,
     whose events the explorer does not report, so its allocation is
     left out of bytes per event. *)
  let t0 = Pb.elapsed () and a0 = Pb.allocated () in
  let repro_runs = Pb.span "explore.repro" (fun () -> repro args input) in
  let repro_alloc = Pb.allocated () -. a0 in
  if !Pb.tracing then Pb.add "explore.repro_s" (Pb.elapsed () -. t0);
  let explored = !runs in
  { Pb.events = !events;
    sim_s = float_of_int explored *. input.clean.Scale.Desc.d_duration;
    deliveries = !deliveries;
    schedules = explored + repro_runs;
    run_ms = List.rev !run_ms;
    untallied_alloc = repro_alloc }

(* Traced only: re-drive the clean twin's canonical schedule under
   every approach with the engine profiler on. *)
let layers _args input =
  List.iter
    (fun a ->
      let digest = Pb.span "redrive" (fun () -> Redrive.run ~sustain input.clean a) in
      Pb.emit "redrive"
        [ ("key", Pb.str (Printf.sprintf "canonical/approach%d" (Approach.number a)));
          ("digest", Pb.str digest) ])
    Approach.all

let () = Pb.main ~setup ~work ~layers ()
