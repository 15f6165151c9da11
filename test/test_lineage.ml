(* Causal packet-lineage: span collection across the figure-1 handover,
   happens-before queries, the mmcast-lineage/1 on-disk round trip, the
   catapult export and the per-handover latency breakdown. *)

open Mmcast

let group = Scenario.group

(* The canonical traced run: figure-1 network, CBR stream from t=30,
   R3 hands off L4 -> L6 at t=60, 120 s total, lineage collection on
   from the start. *)
let traced_run approach =
  let spec = { Scenario.default_spec with Scenario.approach } in
  let scenario = Scenario.paper_figure1 spec in
  let lin = Obs.Lineage.create ~approach:(Approach.name approach) () in
  Obs.Lineage.attach lin scenario.Scenario.sim;
  Traffic.at scenario 5.0 (fun () -> Scenario.subscribe_receivers scenario group);
  ignore
    (Traffic.cbr scenario (Scenario.host scenario "S") ~group ~from_t:30.0
       ~until:110.0 ~interval:0.5 ~bytes:500);
  Traffic.at scenario 60.0 (fun () ->
      Host_stack.move_to (Scenario.host scenario "R3") (Scenario.link scenario "L6"));
  Scenario.run_until scenario 120.0;
  lin

let span_names chain = List.map (fun (s : Engine.Span.span) -> s.Engine.Span.sp_name) chain

let has_prefix prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let query_tests =
  [ Alcotest.test_case "delivery chain crosses the tunnel" `Quick (fun () ->
        let lin = traced_run Approach.bidirectional_tunnel in
        Alcotest.(check bool) "spans recorded" true (Obs.Lineage.span_count lin > 0);
        Alcotest.(check bool) "marks recorded" true (Obs.Lineage.mark_count lin > 0);
        match Obs.Lineage.delivery_chain lin ~node:"R3" () with
        | None -> Alcotest.fail "no delivery chain for R3"
        | Some chain ->
          let names = span_names chain in
          (* The last delivery to R3 happens after the handover, so the
             chain must show the full encap -> tunnel -> decap journey. *)
          Alcotest.(check bool) "starts at injection" true
            (has_prefix "inject" (List.hd names));
          Alcotest.(check bool) "contains encap" true (List.mem "encap" names);
          Alcotest.(check bool) "contains decap" true (List.mem "decap" names);
          let last = List.nth chain (List.length chain - 1) in
          Alcotest.(check bool) "ends at a delivery" true
            (has_prefix "deliver" last.Engine.Span.sp_name);
          Alcotest.(check string) "delivered on R3" "R3" last.Engine.Span.sp_node);
    Alcotest.test_case "why_dropped names a typed reason" `Quick (fun () ->
        let lin = traced_run Approach.bidirectional_tunnel in
        match Obs.Lineage.why_dropped lin () with
        | None -> Alcotest.fail "figure-1 run recorded no drops at all"
        | Some chain ->
          let last = List.nth chain (List.length chain - 1) in
          (match last.Engine.Span.sp_drop with
           | None -> Alcotest.fail "terminal span of a drop chain has no reason"
           | Some r ->
             Alcotest.(check bool) "drop span is named after its reason" true
               (last.Engine.Span.sp_name
                = "drop:" ^ Engine.Span.drop_reason_name r));
          (* The rendered chain carries the reason for humans too. *)
          let rendered = String.concat "\n" (Engine.Span.render_chain chain) in
          let has_sub needle hay =
            let n = String.length needle and h = String.length hay in
            let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "rendered chain flags the drop" true
            (has_sub "[dropped:" rendered));
    Alcotest.test_case "drop_counts agrees with the raw spans" `Quick (fun () ->
        let lin = traced_run Approach.bidirectional_tunnel in
        let counted =
          List.fold_left (fun acc (_, n) -> acc + n) 0 (Obs.Lineage.drop_counts lin)
        in
        let raw =
          List.length
            (List.filter
               (fun (s : Engine.Span.span) -> s.Engine.Span.sp_drop <> None)
               (Engine.Span.spans (Obs.Lineage.collector lin)))
        in
        Alcotest.(check bool) "at least one drop" true (raw > 0);
        Alcotest.(check int) "per-reason totals sum to the raw count" raw counted;
        List.iter
          (fun (name, n) ->
            Alcotest.(check bool) (name ^ " is a known reason") true
              (Engine.Span.drop_reason_of_name name <> None);
            Alcotest.(check bool) (name ^ " count positive") true (n > 0))
          (Obs.Lineage.drop_counts lin))
  ]

let roundtrip_tests =
  [ Alcotest.test_case "mmcast-lineage/1 survives save and load" `Quick (fun () ->
        let lin = traced_run Approach.tunnel_to_home_agent in
        let path = Filename.temp_file "lineage" ".json" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Obs.Lineage.save lin ~path;
            match Obs.Lineage.load path with
            | Error e -> Alcotest.failf "reload failed: %s" e
            | Ok back ->
              Alcotest.(check string) "approach"
                (Obs.Lineage.approach lin) (Obs.Lineage.approach back);
              Alcotest.(check int) "span count"
                (Obs.Lineage.span_count lin) (Obs.Lineage.span_count back);
              Alcotest.(check int) "mark count"
                (Obs.Lineage.mark_count lin) (Obs.Lineage.mark_count back);
              Alcotest.(check (list (pair string int))) "drop totals"
                (Obs.Lineage.drop_counts lin) (Obs.Lineage.drop_counts back);
              let rendered queries store =
                match queries store with
                | None -> []
                | Some chain -> Engine.Span.render_chain chain
              in
              Alcotest.(check (list string)) "delivery chain identical"
                (rendered (fun l -> Obs.Lineage.delivery_chain l ~node:"R3" ()) lin)
                (rendered (fun l -> Obs.Lineage.delivery_chain l ~node:"R3" ()) back);
              Alcotest.(check (list string)) "drop chain identical"
                (rendered (fun l -> Obs.Lineage.why_dropped l ()) lin)
                (rendered (fun l -> Obs.Lineage.why_dropped l ()) back)));
    Alcotest.test_case "of_json rejects a wrong schema" `Quick (fun () ->
        let doc =
          Obs.Json.Obj
            [ ("schema", Obs.Json.String "mmcast-telemetry/1");
              ("spans", Obs.Json.List []);
              ("marks", Obs.Json.List []) ]
        in
        match Obs.Lineage.of_json doc with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "wrong schema accepted")
  ]

let member = Obs.Json.member

let catapult_tests =
  [ Alcotest.test_case "catapult export shape" `Quick (fun () ->
        let lin = traced_run Approach.bidirectional_tunnel in
        let doc = Obs.Export.catapult_json lin in
        (match Obs.Json.of_string (Obs.Json.to_string doc) with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "catapult not valid JSON: %s" e);
        (match member "displayTimeUnit" doc with
         | Some (Obs.Json.String "ms") -> ()
         | _ -> Alcotest.fail "displayTimeUnit missing");
        match member "traceEvents" doc with
        | Some (Obs.Json.List events) ->
          let phases =
            List.filter_map
              (fun e ->
                match member "ph" e with
                | Some (Obs.Json.String p) -> Some p
                | _ -> None)
            events
          in
          Alcotest.(check bool) "events present" true (events <> []);
          List.iter
            (fun needed ->
              Alcotest.(check bool) ("has a " ^ needed ^ " event") true
                (List.mem needed phases))
            (* M: thread-name metadata, X: spans, i: marks. *)
            [ "M"; "X"; "i" ];
          (* Causal edges (e.g. a Prune-caused Graft) become one
             start/finish flow-arrow pair each — no more, no less. *)
          let causes =
            List.length
              (List.filter
                 (fun (s : Engine.Span.span) -> s.Engine.Span.sp_cause >= 0)
                 (Engine.Span.spans (Obs.Lineage.collector lin)))
          in
          let count p = List.length (List.filter (String.equal p) phases) in
          Alcotest.(check int) "one flow start per causal edge" causes (count "s");
          Alcotest.(check int) "one flow finish per causal edge" causes (count "f");
          List.iter
            (fun e ->
              match (member "ph" e, member "ts" e) with
              | Some (Obs.Json.String ("X" | "i" | "s" | "f")), Some ts ->
                let v = Option.get (Obs.Json.to_float_opt ts) in
                Alcotest.(check bool) "timestamps non-negative" true (v >= 0.0)
              | _ -> ())
            events
        | _ -> Alcotest.fail "no traceEvents list");
    Alcotest.test_case "causal edges become flow arrows" `Quick (fun () ->
        let lin = Obs.Lineage.create ~approach:"synthetic" () in
        let c = Obs.Lineage.collector lin in
        let prune =
          Engine.Span.event c ~at:1.0 ~name:"pim-prune-sent" ~node:"B" ()
        in
        Engine.Span.clear_context c;
        ignore
          (Engine.Span.event c ~at:1.5 ~name:"pim-graft-sent" ~node:"C"
             ~cause:prune ());
        match member "traceEvents" (Obs.Export.catapult_json lin) with
        | Some (Obs.Json.List events) ->
          let phases =
            List.filter_map
              (fun e ->
                match member "ph" e with
                | Some (Obs.Json.String p) -> Some p
                | _ -> None)
              events
          in
          Alcotest.(check bool) "flow start" true (List.mem "s" phases);
          Alcotest.(check bool) "flow finish" true (List.mem "f" phases)
        | _ -> Alcotest.fail "no traceEvents list")
  ]

let handover_tests =
  [ Alcotest.test_case "breakdown covers the L4 -> L6 handoff" `Quick (fun () ->
        let lin = traced_run Approach.tunnel_to_home_agent in
        match Obs.Export.handover_breakdowns lin with
        | [] -> Alcotest.fail "no handover records"
        | b :: _ ->
          Alcotest.(check string) "node" "R3" b.Obs.Export.hb_node;
          Alcotest.(check string) "from" "L4" b.Obs.Export.hb_from;
          Alcotest.(check string) "to" "L6" b.Obs.Export.hb_to;
          Alcotest.(check (float 1e-9)) "handoff instant" 60.0
            (Engine.Time.seconds b.Obs.Export.hb_at);
          let positive what = function
            | Some v -> Alcotest.(check bool) (what ^ " positive") true (v > 0.0)
            | None -> Alcotest.failf "%s missing from the breakdown" what
          in
          positive "movement detection" b.Obs.Export.hb_movement_detection_s;
          positive "BU propagation" b.Obs.Export.hb_bu_propagation_s;
          positive "tunnel setup" b.Obs.Export.hb_tunnel_setup_s;
          positive "first delivery" b.Obs.Export.hb_first_delivery_s;
          (* Stages are nested phases of one disruption: movement
             detection ends before the tunnel is up, and the stream is
             only whole again after that. *)
          let v o = Option.get o in
          Alcotest.(check bool) "detection <= tunnel setup" true
            (v b.Obs.Export.hb_movement_detection_s
             <= v b.Obs.Export.hb_tunnel_setup_s);
          Alcotest.(check bool) "tunnel setup <= first delivery" true
            (v b.Obs.Export.hb_tunnel_setup_s
             <= v b.Obs.Export.hb_first_delivery_s));
    Alcotest.test_case "handover document shape" `Quick (fun () ->
        let lin = traced_run Approach.local_membership in
        let doc = Obs.Export.handovers_json lin in
        (match member "schema" doc with
         | Some (Obs.Json.String s) ->
           Alcotest.(check string) "schema" Obs.Lineage.schema s
         | _ -> Alcotest.fail "no schema field");
        (match member "kind" doc with
         | Some (Obs.Json.String "handover-breakdown") -> ()
         | _ -> Alcotest.fail "wrong kind");
        match member "handovers" doc with
        | Some (Obs.Json.List (_ :: _)) -> ()
        | _ -> Alcotest.fail "no handover records in the document")
  ]

(* The exported bytes themselves, pinned by md5 for every approach:
   the emitter and the document builders may get faster, but a saved
   lineage, catapult or handover file must not change by one byte.
   Per approach: compact lineage, compact catapult, compact and pretty
   handover breakdown. *)
let golden_md5s =
  [ ( "local group membership",
      [ "0fd6b11f7da5e0b106035555415de1f7"; "5b727b29df9bd03258a1146b58fac97b";
        "c3ae43a7077736c5a3e04323e4e1287c"; "da5559cde78191292f9d5d043cd4cab3" ] );
    ( "bi-directional tunnel",
      [ "d590253d564eb2d5d0a08a8f6905f71e"; "e0648899ac28153a1c424d745219930e";
        "c0bd64d3745ae7225e9d97b20d8e7265"; "bf1d03f1ed247813f2b543b7d259171f" ] );
    ( "uni-directional tunnel MH->HA",
      [ "f7b3210319a68710fd8c79c74b2ad479"; "5b727b29df9bd03258a1146b58fac97b";
        "727b38fab9c1285059a538f1af3b67a3"; "ee3b69a2728a5eed7a999f9ce5d68e15" ] );
    ( "uni-directional tunnel HA->MH",
      [ "28a164a2fdf41d94a334b9f9524cad00"; "e0648899ac28153a1c424d745219930e";
        "5a5f4209dea17c165de986017aa14175"; "83dfd4089466af6157af82086deb616a" ] ) ]

let golden_tests =
  [ Alcotest.test_case "exported bytes match the recorded md5s" `Quick (fun () ->
        let md5 doc = Digest.to_hex (Digest.string doc) in
        let exported approach =
          let lin = traced_run approach in
          ( Approach.name approach,
            List.map md5
              [ Obs.Json.to_string (Obs.Lineage.to_json lin);
                Obs.Json.to_string (Obs.Export.catapult_json lin);
                Obs.Json.to_string (Obs.Export.handovers_json lin);
                Obs.Json.to_string ~pretty:true (Obs.Export.handovers_json lin) ] )
        in
        Alcotest.(check (list (pair string (list string))))
          "md5 per approach" golden_md5s
          (List.map exported Approach.all))
  ]

let purity_tests =
  [ Alcotest.test_case "collection does not perturb deliveries" `Quick (fun () ->
        let run traced =
          let scenario = Scenario.paper_figure1 Scenario.default_spec in
          if traced then begin
            let lin = Obs.Lineage.create () in
            Obs.Lineage.attach lin scenario.Scenario.sim
          end;
          Traffic.at scenario 5.0 (fun () ->
              Scenario.subscribe_receivers scenario group);
          ignore
            (Traffic.cbr scenario (Scenario.host scenario "S") ~group ~from_t:30.0
               ~until:80.0 ~interval:0.5 ~bytes:500);
          Scenario.run_until scenario 90.0;
          ( List.map
              (fun name ->
                Host_stack.received_count (Scenario.host scenario name) ~group)
              [ "R1"; "R2"; "R3" ],
            Engine.Sim.events_executed scenario.Scenario.sim )
        in
        Alcotest.(check (pair (list int) int))
          "identical observables" (run false) (run true))
  ]

let () =
  Alcotest.run "lineage"
    [ ("queries", query_tests);
      ("round trip", roundtrip_tests);
      ("catapult", catapult_tests);
      ("handover", handover_tests);
      ("golden", golden_tests);
      ("purity", purity_tests)
    ]
