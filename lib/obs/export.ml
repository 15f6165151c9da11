(* ---- Chrome trace-event (catapult) export ----

   One process per run; one thread per node, named via "M" metadata
   events.  Spans become "X" complete events, marks become "i" instant
   events, and causal edges become "s"/"f" flow events so chrome://
   tracing and Perfetto draw the prune-to-graft arrows. *)

let usec t = Engine.Time.seconds t *. 1e6

let tid_table collector =
  let tids = Hashtbl.create 16 in
  let next = ref 1 in
  let tid node =
    match Hashtbl.find_opt tids node with
    | Some n -> n
    | None ->
      let n = !next in
      incr next;
      Hashtbl.replace tids node n;
      n
  in
  Engine.Span.iter collector (fun sp -> ignore (tid sp.Engine.Span.sp_node));
  List.iter (fun mk -> ignore (tid mk.Engine.Span.mk_node)) (Engine.Span.marks collector);
  tids

(* [attrs] are newest first; the args list holds them oldest first. *)
let attr_fields attrs = List.rev_map (fun (k, v) -> (k, Json.String v)) attrs

let catapult_json lineage =
  let collector = Lineage.collector lineage in
  let tids = tid_table collector in
  let tid node = try Hashtbl.find tids node with Not_found -> 0 in
  let events = ref [] in
  let emit e = events := e :: !events in
  Hashtbl.iter
    (fun node n ->
      emit
        (Json.Obj
           [ ("name", Json.String "thread_name");
             ("ph", Json.String "M");
             ("pid", Json.Int 0);
             ("tid", Json.Int n);
             ("args", Json.Obj [ ("name", Json.String (if node = "" then "(engine)" else node)) ]) ]))
    tids;
  let flow = ref 0 in
  Engine.Span.iter collector (fun sp ->
      let open Engine.Span in
      let args = ("trace", Json.Int sp.sp_trace) :: attr_fields sp.sp_attrs in
      let args =
        match sp.sp_drop with
        | None -> args
        | Some r -> ("drop", Json.String (drop_reason_name r)) :: args
      in
      emit
        (Json.Obj
           [ ("name", Json.String sp.sp_name);
             ("ph", Json.String "X");
             ("pid", Json.Int 0);
             ("tid", Json.Int (tid sp.sp_node));
             ("ts", Json.float (usec sp.sp_start));
             ("dur", Json.float (Float.max 0.0 (usec sp.sp_end -. usec sp.sp_start)));
             ("args", Json.Obj args) ]);
      if sp.sp_cause >= 0 then begin
        let cause = Engine.Span.get collector sp.sp_cause in
        incr flow;
        let id = !flow in
        emit
          (Json.Obj
             [ ("name", Json.String "cause");
               ("ph", Json.String "s");
               ("cat", Json.String "cause");
               ("id", Json.Int id);
               ("pid", Json.Int 0);
               ("tid", Json.Int (tid cause.sp_node));
               ("ts", Json.float (usec cause.sp_start)) ]);
        emit
          (Json.Obj
             [ ("name", Json.String "cause");
               ("ph", Json.String "f");
               ("bp", Json.String "e");
               ("cat", Json.String "cause");
               ("id", Json.Int id);
               ("pid", Json.Int 0);
               ("tid", Json.Int (tid sp.sp_node));
               ("ts", Json.float (usec sp.sp_start)) ])
      end);
  List.iter
    (fun mk ->
      let open Engine.Span in
      let tail =
        if mk.mk_attrs = [] then [] else [ ("args", Json.Obj (attr_fields mk.mk_attrs)) ]
      in
      emit
        (Json.Obj
           (("name", Json.String mk.mk_name)
            :: ("ph", Json.String "i")
            :: ("s", Json.String "t")
            :: ("pid", Json.Int 0)
            :: ("tid", Json.Int (tid mk.mk_node))
            :: ("ts", Json.float (usec mk.mk_at))
            :: tail)))
    (Engine.Span.marks collector);
  Json.Obj
    [ ("traceEvents", Json.List (List.rev !events));
      ("displayTimeUnit", Json.String "ms") ]

let save_catapult lineage ~path = Json.write_file ~path (catapult_json lineage)

(* ---- per-handover latency breakdown ----

   Reconstructed from the marks the protocol layers leave behind:
   "handoff"/"attach"/"bu-sent"/"bu-acked"/"first-delivery" on the
   mobile node, "tunnel-up" on the home agent and
   "graft-sent"/"graft-acked" on whichever router re-grafts the tree.
   Each stage is optional — an approach that never grafts simply has
   no graft stage. *)

type breakdown = {
  hb_node : string;
  hb_at : Engine.Time.t;  (* handoff time *)
  hb_from : string;
  hb_to : string;
  hb_movement_detection_s : float option;  (* handoff -> attach *)
  hb_bu_propagation_s : float option;  (* bu-sent -> bu-acked *)
  hb_tunnel_setup_s : float option;  (* handoff -> tunnel-up *)
  hb_graft_propagation_s : float option;  (* graft-sent -> graft-acked *)
  hb_first_delivery_s : float option;  (* handoff -> first post-handoff delivery *)
}

let attr name mk =
  match List.assoc_opt name mk.Engine.Span.mk_attrs with
  | Some v -> v
  | None -> ""

let handover_breakdowns lineage =
  let open Engine.Span in
  let marks = Engine.Span.marks (Lineage.collector lineage) in
  let in_window t0 t1 mk = Engine.Time.(t0 <=. mk.mk_at && mk.mk_at <. t1) in
  let first_mark ~name ?node ~from ~until () =
    List.find_opt
      (fun mk ->
        mk.mk_name = name
        && in_window from until mk
        && match node with None -> true | Some n -> mk.mk_node = n)
      marks
  in
  let handoffs = List.filter (fun mk -> mk.mk_name = "handoff") marks in
  List.map
    (fun h ->
      let node = h.mk_node in
      let t0 = h.mk_at in
      let t1 =
        (* window closes at this node's next handoff *)
        match
          List.find_opt
            (fun mk ->
              mk.mk_name = "handoff" && mk.mk_node = node && Engine.Time.(t0 <. mk.mk_at))
            marks
        with
        | Some nxt -> nxt.mk_at
        | None -> infinity
      in
      let delta_from base mk = Engine.Time.seconds (Engine.Time.sub mk.mk_at base) in
      let stage ~name ?node () =
        Option.map (delta_from t0) (first_mark ~name ?node ~from:t0 ~until:t1 ())
      in
      let bu_prop =
        match first_mark ~name:"bu-sent" ~node ~from:t0 ~until:t1 () with
        | None -> None
        | Some sent ->
          Option.map (delta_from sent.mk_at)
            (first_mark ~name:"bu-acked" ~node ~from:sent.mk_at ~until:t1 ())
      in
      let graft_prop =
        match first_mark ~name:"graft-sent" ~from:t0 ~until:t1 () with
        | None -> None
        | Some sent ->
          Option.map (delta_from sent.mk_at)
            (first_mark ~name:"graft-acked" ~from:sent.mk_at ~until:t1 ())
      in
      { hb_node = node;
        hb_at = t0;
        hb_from = attr "from" h;
        hb_to = attr "to" h;
        hb_movement_detection_s = stage ~name:"attach" ~node ();
        hb_bu_propagation_s = bu_prop;
        hb_tunnel_setup_s = stage ~name:"tunnel-up" ();
        hb_graft_propagation_s = graft_prop;
        hb_first_delivery_s = stage ~name:"first-delivery" ~node () })
    handoffs

let breakdown_json b =
  Json.Obj
    [ ("node", Json.String b.hb_node);
      ("at_s", Json.float (Engine.Time.seconds b.hb_at));
      ("from", Json.String b.hb_from);
      ("to", Json.String b.hb_to);
      ("movement_detection_s", Json.opt Json.float b.hb_movement_detection_s);
      ("bu_propagation_s", Json.opt Json.float b.hb_bu_propagation_s);
      ("tunnel_setup_s", Json.opt Json.float b.hb_tunnel_setup_s);
      ("graft_propagation_s", Json.opt Json.float b.hb_graft_propagation_s);
      ("first_delivery_s", Json.opt Json.float b.hb_first_delivery_s) ]

let handovers_json lineage =
  Json.Obj
    [ ("schema", Json.String Lineage.schema);
      ("kind", Json.String "handover-breakdown");
      ("approach", Json.String (Lineage.approach lineage));
      ("handovers", Json.List (List.map breakdown_json (handover_breakdowns lineage))) ]

let pp_breakdown ppf b =
  let stage name = function
    | None -> ()
    | Some s -> Format.fprintf ppf "    %-20s %8.3f ms@." name (s *. 1e3)
  in
  Format.fprintf ppf "  handoff %s -> %s at %.3fs (%s)@." b.hb_from b.hb_to
    (Engine.Time.seconds b.hb_at) b.hb_node;
  stage "movement-detection" b.hb_movement_detection_s;
  stage "bu-propagation" b.hb_bu_propagation_s;
  stage "tunnel-setup" b.hb_tunnel_setup_s;
  stage "graft-propagation" b.hb_graft_propagation_s;
  stage "first-delivery" b.hb_first_delivery_s
