(* Re-drive a scenario descriptor the way [Scale.Runner.run] does with
   the canonical schedule, but from its public pieces, so a traced unit
   can time the build, profile the engine categories (the monitor's
   sampling among them) and census control traffic — none of which
   [Runner.run] exposes.  The caller compares the returned trace digest
   with the untraced outcome's: profiling and metrics observers must
   not change the run. *)

open Mmcast

let compile_faults sc (d : Scale.Desc.t) =
  let link = Scenario.link sc in
  List.map
    (function
      | Scale.Desc.Loss { link = l; rate; from_t; until } ->
        Faults.loss_window ~link:(link l) ~rate ~from_t ~until
      | Scale.Desc.Flap { link = l; down_at; up_at } ->
        Faults.link_flap ~link:(link l) ~down_at ~up_at
      | Scale.Desc.Crash { router; at; recover_at } ->
        Faults.crash ~node:(Router_stack.node_id (Scenario.router sc router)) ~at ~recover_at ())
    d.Scale.Desc.d_faults

let run ?sustain (d : Scale.Desc.t) approach =
  let spec = Scale.Runner.spec_for d approach in
  let t0 = Pb.elapsed () in
  let sc =
    Pb.span "build" (fun () ->
        Scenario.build spec ~links:d.Scale.Desc.d_links ~routers:d.Scale.Desc.d_routers
          ~hosts:d.Scale.Desc.d_hosts)
  in
  Pb.add "scale.build_s" (Pb.elapsed () -. t0);
  Pb.addi "scale.builds" 1;
  Pb.profile sc.Scenario.sim;
  let metrics = Metrics.attach sc.Scenario.net in
  let faults = Scenario.install_faults sc (compile_faults sc d) in
  let config =
    match sustain with
    | None -> Check.Monitor.default_config
    | Some _ -> { Check.Monitor.default_config with Check.Monitor.sustain }
  in
  let monitor = Check.Monitor.attach ~config ~faults sc in
  let host = Scenario.host sc in
  List.iter
    (fun ev ->
      Traffic.at sc (Scale.Desc.event_time ev) (fun () ->
          match ev with
          | Scale.Desc.Join { host = h; group; _ } ->
            Host_stack.subscribe (host h) (Scale.Desc.group_addr group)
          | Scale.Desc.Leave { host = h; group; _ } ->
            Host_stack.unsubscribe (host h) (Scale.Desc.group_addr group)
          | Scale.Desc.Move { host = h; link; _ } ->
            Host_stack.move_to (host h) (Scenario.link sc link)))
    d.Scale.Desc.d_events;
  let tr = d.Scale.Desc.d_traffic in
  List.iter
    (fun (sender, group) ->
      ignore
        (Traffic.cbr sc (host sender) ~group:(Scale.Desc.group_addr group)
           ~from_t:tr.Scale.Desc.tr_from ~until:tr.Scale.Desc.tr_until
           ~interval:tr.Scale.Desc.tr_interval ~bytes:tr.Scale.Desc.tr_bytes))
    d.Scale.Desc.d_senders;
  let t1 = Pb.elapsed () in
  Pb.span "run_until" (fun () -> Scenario.run_until sc d.Scale.Desc.d_duration);
  let run_s = Pb.elapsed () -. t1 in
  Check.Monitor.detach monitor;
  Pb.absorb_profile sc.Scenario.sim ~run_s;
  Pb.absorb_metrics metrics;
  Pb.absorb_net sc.Scenario.net;
  let groups = List.map Scale.Desc.group_addr (Scale.Runner.groups_of d) in
  let sum f =
    List.fold_left
      (fun acc (_, h) -> List.fold_left (fun acc group -> acc + f h ~group) acc groups)
      0 sc.Scenario.hosts
  in
  Pb.absorb_delivery
    ~sent:
      (List.fold_left
         (fun acc s -> acc + Host_stack.data_sent (host s))
         0
         (List.sort_uniq compare (List.map fst d.Scale.Desc.d_senders)))
    ~delivered:(sum Host_stack.received_count) ~duplicates:(sum Host_stack.duplicate_count);
  Pb.addi "check.samples" (Check.Monitor.samples monitor);
  Pb.addi "check.violations" (Check.Monitor.violation_count monitor);
  Engine.Trace.digest (Net.Network.trace sc.Scenario.net)
