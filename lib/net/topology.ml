open Ipv6
module Node_id = Ids.Node_id
module Link_id = Ids.Link_id

type node_kind = Router | Host

type node = {
  node_name : string;
  kind : node_kind;
  iid : int64;
  mutable attached : Link_id.Set.t;
}

type link = {
  link_name : string;
  prefix : Prefix.t;
  delay : Engine.Time.t;
  bandwidth_bps : float;
  mutable members : Node_id.Set.t;
}

type t = {
  mutable node_table : node Node_id.Map.t;
  mutable link_table : link Link_id.Map.t;
  mutable next_node : int;
  mutable next_link : int;
  mutable version : int;
}

let create () =
  { node_table = Node_id.Map.empty;
    link_table = Link_id.Map.empty;
    next_node = 0;
    next_link = 0;
    version = 0 }

let bump t = t.version <- t.version + 1

(* [find] rather than [find_opt]: these run several times per packet,
   and the option would be an allocation each time. *)
let node t id =
  match Node_id.Map.find id t.node_table with
  | n -> n
  | exception Not_found ->
    invalid_arg (Format.asprintf "Topology: unknown node %a" Node_id.pp id)

let link t id =
  match Link_id.Map.find id t.link_table with
  | l -> l
  | exception Not_found ->
    invalid_arg (Format.asprintf "Topology: unknown link %a" Link_id.pp id)

let add_node t ~name ~kind =
  let id = Node_id.of_int t.next_node in
  t.next_node <- t.next_node + 1;
  let iid = Int64.of_int (Node_id.to_int id + 1) in
  t.node_table <-
    Node_id.Map.add id
      { node_name = name; kind; iid; attached = Link_id.Set.empty }
      t.node_table;
  bump t;
  id

let add_link t ~name ~prefix ?(delay = 0.005) ?(bandwidth_bps = 10_000_000.0) () =
  if Prefix.length prefix > 64 then
    invalid_arg "Topology.add_link: link prefixes must be at most /64";
  let clash =
    Link_id.Map.exists (fun _ l -> Prefix.equal l.prefix prefix) t.link_table
  in
  if clash then
    invalid_arg
      (Printf.sprintf "Topology.add_link: prefix %s already in use" (Prefix.to_string prefix));
  let id = Link_id.of_int t.next_link in
  t.next_link <- t.next_link + 1;
  t.link_table <-
    Link_id.Map.add id
      { link_name = name; prefix; delay; bandwidth_bps; members = Node_id.Set.empty }
      t.link_table;
  bump t;
  id

let nodes t = List.map fst (Node_id.Map.bindings t.node_table)
let links t = List.map fst (Link_id.Map.bindings t.link_table)

let node_name t id = (node t id).node_name
let node_kind t id = (node t id).kind
let interface_id t id = (node t id).iid

let find_node_by_name t name =
  Node_id.Map.fold
    (fun id n acc -> if String.equal n.node_name name then Some id else acc)
    t.node_table None

let link_name t id = (link t id).link_name
let link_prefix t id = (link t id).prefix
let link_delay t id = (link t id).delay
let link_bandwidth_bps t id = (link t id).bandwidth_bps

let find_link_by_name t name =
  Link_id.Map.fold
    (fun id l acc -> if String.equal l.link_name name then Some id else acc)
    t.link_table None

let attach t node_id link_id =
  let n = node t node_id and l = link t link_id in
  if not (Link_id.Set.mem link_id n.attached) then begin
    n.attached <- Link_id.Set.add link_id n.attached;
    l.members <- Node_id.Set.add node_id l.members;
    bump t
  end

let detach t node_id link_id =
  let n = node t node_id and l = link t link_id in
  if Link_id.Set.mem link_id n.attached then begin
    n.attached <- Link_id.Set.remove link_id n.attached;
    l.members <- Node_id.Set.remove node_id l.members;
    bump t
  end

let is_attached t node_id link_id = Link_id.Set.mem link_id (node t node_id).attached

let nodes_on_link t link_id = Node_id.Set.elements (link t link_id).members

(* Same members, same ascending order, no list materialized — the
   per-transmit fan-out path. *)
let iter_nodes_on_link t link_id f = Node_id.Set.iter f (link t link_id).members

let routers_on_link t link_id =
  List.filter (fun n -> (node t n).kind = Router) (nodes_on_link t link_id)

let links_of_node t node_id = Link_id.Set.elements (node t node_id).attached

let address_on t node_id link_id =
  Prefix.append_interface_id (link t link_id).prefix (node t node_id).iid

let link_local_prefix = Prefix.make (Addr.make 0xfe80_0000_0000_0000L 0L) 64

let link_local t node_id = Prefix.append_interface_id link_local_prefix (node t node_id).iid

let link_of_address t addr =
  Link_id.Map.fold
    (fun id l acc -> if Prefix.contains l.prefix addr then Some id else acc)
    t.link_table None

let is_connected t =
  match Node_id.Map.min_binding_opt t.node_table with
  | None -> true
  | Some (start, _) ->
    let visited = Hashtbl.create 64 in
    let rec walk id =
      if not (Hashtbl.mem visited id) then begin
        Hashtbl.replace visited id ();
        Link_id.Set.iter
          (fun l -> Node_id.Set.iter walk (link t l).members)
          (node t id).attached
      end
    in
    walk start;
    Hashtbl.length visited = Node_id.Map.cardinal t.node_table

let version t = t.version
