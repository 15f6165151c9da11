(* A self-test fixture, not a workload.  Variant 0: the warm-up unit
   and the first measured unit complete, the next one raises.  Variant
   1: the set-up raises.  selftest.py checks that such a run ends at
   once and is reported as failed operations. *)

let setup (args : Pb.args) = if args.Pb.variant = 1 then failwith "injected set-up failure"

let units = ref 0

let work _args () =
  incr units;
  if !units > 2 then failwith "injected unit failure";
  Unix.sleepf 0.01;
  { Pb.events = 1; sim_s = 1.0; deliveries = 1; schedules = 1; run_ms = [ 1.0 ];
    untallied_alloc = 0.0 }

let () = Pb.main ~setup ~work ()
