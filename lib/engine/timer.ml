type t = {
  sim : Sim.t;
  name : string;
  category : string;
  on_expire : unit -> unit;
  mutable handle : Sim.handle option;  (* [Some] exactly while armed *)
  mutable expiry : Time.t;  (* meaningful while armed *)
  fire : unit -> unit;  (* the one callback every arming schedules *)
}

let create ?(category = "timer") sim ~name ~on_expire =
  let rec t =
    { sim;
      name;
      category;
      on_expire;
      handle = None;
      expiry = Time.zero;
      fire =
        (fun () ->
          t.handle <- None;
          t.on_expire ()) }
  in
  t

let stop t =
  match t.handle with
  | None -> ()
  | Some handle ->
    Sim.cancel t.sim handle;
    t.handle <- None

let arm t expiry =
  t.handle <- Some (Sim.schedule_at ~category:t.category t.sim expiry t.fire);
  t.expiry <- expiry

(* A restart to a later (or the same) deadline moves the pending event
   in place — the common case: the (S,G) data timeout restarts on every
   datagram — and allocates nothing beyond the new deadline itself.
   Only an earlier deadline, which an in-place move cannot express,
   cancels and schedules afresh.  Both fire in exactly the order
   stop-then-schedule gives. *)
let start t duration =
  let expiry = Time.add (Sim.now t.sim) duration in
  match t.handle with
  | Some handle when Time.compare expiry t.expiry >= 0 ->
    Sim.postpone t.sim handle expiry;
    t.expiry <- expiry
  | Some _ ->
    stop t;
    arm t expiry
  | None -> arm t expiry

let is_armed t = t.handle <> None

let expiry t =
  match t.handle with
  | None -> None
  | Some _ -> Some t.expiry

let remaining t =
  match t.handle with
  | None -> None
  | Some _ -> Some (Time.sub t.expiry (Sim.now t.sim))

let name t = t.name
