(* In-memory spans recorded by the benchmark around calls into each
   layer's public functions.  Each caller thread owns one track, so
   recording takes no lock.  At exit the tracks are written in the
   Chrome trace_event format that [lib/obs] emits, and aggregated into
   per-span self times. *)

type span = {
  name : string;
  op : int;  (* the op this span belongs to *)
  id : int;
  parent : int;  (* span id, -1 for an op's root span *)
  t0 : float;
  t1 : float;
}

type track = {
  tid : int;
  mutable spans : span list;
  mutable events : Res_obs.Event.t list;  (* newest first *)
  mutable stack : int list;
  mutable next : int;
  mutable op : int;
}

let enabled = ref false
let epoch = Util.now ()
let us t = (t -. epoch) *. 1e6
let tracks : track list ref = ref []
let tracks_lock = Mutex.create ()

let track tid =
  let t = { tid; spans = []; events = []; stack = []; next = 0; op = 0 } in
  Mutex.protect tracks_lock (fun () -> tracks := t :: !tracks);
  t

let event tr phase name t =
  tr.events <- { Res_obs.Event.phase; name; cat = "bench"; ts_us = us t; args = [] } :: tr.events

let span tr name f =
  if not !enabled then f ()
  else begin
    let id = (tr.tid * 100_000_000) + tr.next in
    tr.next <- tr.next + 1;
    let parent = match tr.stack with p :: _ -> p | [] -> -1 in
    tr.stack <- id :: tr.stack;
    let t0 = Util.now () in
    event tr Res_obs.Event.Begin name t0;
    let finish () =
      let t1 = Util.now () in
      event tr Res_obs.Event.End name t1;
      tr.stack <- List.tl tr.stack;
      tr.spans <- { name; op = tr.op; id; parent; t0; t1 } :: tr.spans
    in
    Fun.protect ~finally:finish f
  end

(* The root span of one op. *)
let op tr ~op name f =
  tr.op <- op;
  span tr name f

let all_spans () = List.concat_map (fun t -> t.spans) !tracks

let write_chrome path =
  let dumps =
    List.map
      (fun t -> { Res_obs.Obs.domain = t.tid; events = List.rev t.events; dropped = 0 })
      (List.sort (fun a b -> compare a.tid b.tid) !tracks)
  in
  Res_obs.Trace.write_file path dumps

type agg = { mutable count : int; mutable total : float; mutable self : float }

(* Self time of every span: its duration minus the time covered by its
   direct children, in seconds. *)
let with_self spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s -> (s, Float.max 0. (s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child s.id))))
    spans

(* Per span name: count, total and self time, in seconds. *)
let aggregate () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let a =
        match Hashtbl.find_opt tbl s.name with
        | Some a -> a
        | None ->
          let a = { count = 0; total = 0.; self = 0. } in
          Hashtbl.replace tbl s.name a;
          a
      in
      a.count <- a.count + 1;
      a.total <- a.total +. (s.t1 -. s.t0);
      a.self <- a.self +. self)
    (with_self (all_spans ()));
  tbl

(* Per op: total self time of its non-root spans. *)
let self_by_op () =
  let by_op = Hashtbl.create 1024 in
  List.iter
    (fun (s, self) ->
      if s.parent >= 0 then
        Hashtbl.replace by_op s.op (self +. Option.value ~default:0. (Hashtbl.find_opt by_op s.op)))
    (with_self (all_spans ()));
  by_op

(* Self time of the named span per op, in seconds (0 when never seen). *)
let self_per_op tbl ~ops name =
  match Hashtbl.find_opt tbl name with Some a -> a.self /. float (max 1 ops) | None -> 0.

(* Mean self time of one call of the named span, with the call count. *)
let self_per_call tbl name =
  match Hashtbl.find_opt tbl name with Some a -> Some (a.self /. float a.count, a.count) | None -> None
