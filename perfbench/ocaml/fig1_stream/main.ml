(* fig1-stream: the bare per-packet data plane.  Figure 1 under each
   of the four approaches in turn over 120 simulated seconds, a 200 Hz
   x 500 B stream from S and R3 roaming every 30 s; no monitor, wire
   check, capture or lineage. *)

open Mmcast

(* 10 simulated seconds are about 40 ms of host time: one measured
   slice. *)
let shape = { Pb.horizon = 120.0; first_move = 30.0; move_period = 30.0; slice = 10.0 }

let setup (args : Pb.args) =
  List.iter (fun a -> ignore (Pb.fig1_build shape ~seed:(Pb.fig1_seed args) a)) Approach.all

let work (args : Pb.args) () =
  let events = ref 0 and deliveries = ref 0 and run_ms = ref [] in
  List.iter
    (fun a ->
      let built = Pb.span "build" (fun () -> Pb.fig1_build shape ~seed:(Pb.fig1_seed args) a) in
      let e, d, ms = Pb.fig1_run shape ~approach:a built in
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

let () = Pb.main ~setup ~work ()
