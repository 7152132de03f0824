module Net = Res_server.Net
module Protocol = Res_server.Protocol
module Metrics = Res_server.Metrics
module Frame = Res_server.Frame

let src = Logs.Src.create "resilience.router" ~doc:"Resilience shard router"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  address : Net.address;
  shards : Net.address list;
  replicas : int;
  retries : int;
  backoff_ms : int;
  breaker_threshold : int;
  breaker_cooldown_ms : int;
  health_period_ms : int;
}

let default_config ~address ~shards =
  {
    address;
    shards;
    replicas = 128;
    retries = 2;
    backoff_ms = 50;
    breaker_threshold = 3;
    breaker_cooldown_ms = 1000;
    health_period_ms = 500;
  }

(* --- state --------------------------------------------------------------- *)

(* Per-shard breaker state.  Connections are NOT pooled here: each client
   connection thread keeps its own upstream channels, so concurrent
   clients reach one shard over distinct connections (request/reply on a
   connection is serial — sharing one would serialize the fleet). *)
type peer = {
  p_addr : Net.address;
  p_name : string;
  p_lock : Mutex.t;
  mutable fails : int;  (* consecutive failures *)
  mutable open_until : float;  (* breaker open before this time; 0. = closed *)
}

type t = {
  cfg : config;
  ring : Ring.t;
  peers : (string, peer) Hashtbl.t;
  metrics : Metrics.t;
  latency : Metrics.histogram;
  memo : Res_engine.Query_memo.t;  (* routed query → its canonical key *)
  listener : Net.t;
  mutable health_thread : Thread.t option;
  watch_lock : Mutex.t;
  watches : (int, string * int) Hashtbl.t;  (* router id -> (peer, shard watch id) *)
  mutable next_rid : int;
}

let metrics t = t.metrics
let now () = Unix.gettimeofday ()
let count t name = Metrics.inc (Metrics.counter t.metrics name)

let peer_of t name = Hashtbl.find t.peers name

let breaker_open peer = Mutex.protect peer.p_lock (fun () -> now () < peer.open_until)

let note_success peer =
  Mutex.protect peer.p_lock (fun () ->
      peer.fails <- 0;
      peer.open_until <- 0.)

let note_failure t peer =
  let tripped =
    Mutex.protect peer.p_lock (fun () ->
        peer.fails <- peer.fails + 1;
        if peer.fails >= t.cfg.breaker_threshold && now () >= peer.open_until then begin
          peer.open_until <- now () +. (float_of_int t.cfg.breaker_cooldown_ms /. 1000.);
          true
        end
        else false)
  in
  if tripped then begin
    count t "breaker.trips";
    Log.warn (fun m -> m "breaker open for shard %s" peer.p_name)
  end

(* --- upstream connections ------------------------------------------------ *)

(* The per-client-thread cache of upstream connections, one per shard. *)
type cache = (string, Net.conn) Hashtbl.t

let cached_conn (cache : cache) peer =
  match Hashtbl.find_opt cache peer.p_name with
  | Some u -> u
  | None ->
    let u = Net.connect peer.p_addr in
    Hashtbl.replace cache peer.p_name u;
    u

let drop_conn (cache : cache) peer =
  match Hashtbl.find_opt cache peer.p_name with
  | Some u ->
    Hashtbl.remove cache peer.p_name;
    Net.close u
  | None -> ()

let close_cache (cache : cache) = Hashtbl.iter (fun _ u -> Net.close u) cache

(* One text round trip.  Any I/O failure (connect refused, mid-reply EOF,
   reset) is an [Error]: the connection is dropped so the next attempt
   reconnects from scratch. *)
let send_text cache peer line =
  match
    let u = cached_conn cache peer in
    output_string u.oc line;
    output_char u.oc '\n';
    flush u.oc;
    input_line u.ic
  with
  | reply -> Ok reply
  | exception (End_of_file | Sys_error _) ->
    drop_conn cache peer;
    Error (Printf.sprintf "shard %s hung up" peer.p_name)
  | exception Unix.Unix_error (e, _, _) ->
    drop_conn cache peer;
    Error (Printf.sprintf "shard %s: %s" peer.p_name (Unix.error_message e))

(* One binary round trip: a frame out, a frame back. *)
let send_frame cache peer payload =
  match
    let u = cached_conn cache peer in
    Frame.write_frame u.oc payload;
    Frame.read_frame u.ic
  with
  | Ok reply -> Ok reply
  | Error msg ->
    drop_conn cache peer;
    Error (Printf.sprintf "shard %s: %s" peer.p_name msg)
  | exception (End_of_file | Sys_error _) ->
    drop_conn cache peer;
    Error (Printf.sprintf "shard %s hung up" peer.p_name)
  | exception Unix.Unix_error (e, _, _) ->
    drop_conn cache peer;
    Error (Printf.sprintf "shard %s: %s" peer.p_name (Unix.error_message e))

(* --- the forwarding core ------------------------------------------------- *)

(* Retry [cfg.retries] times on the owning shard with doubling backoff,
   then fail over along the ring.  Shards with an open breaker are
   skipped — unless every shard in the plan is skipped, in which case
   the plan runs once more ignoring breakers (a fleet-wide cooldown must
   not turn a recovered fleet into an outage). *)
let forward t ~key send =
  let plan = Ring.successors t.ring key in
  let rec over_peers ~respect_breakers ~skipped ~last_err = function
    | [] ->
      if respect_breakers && skipped <> [] then
        (* shards sat behind an open breaker and nothing else answered:
           run the skipped ones once ignoring the breakers — a breaker
           is a latency optimization, and it must not turn a reachable
           shard into an outage when every alternative is down *)
        over_peers ~respect_breakers:false ~skipped:[] ~last_err (List.rev skipped)
      else
        Error
          (Protocol.error
             (match last_err with
             | Some msg -> msg
             | None ->
               Printf.sprintf "no shard reachable for this request (%d in ring)"
                 (List.length plan)))
    | name :: rest ->
      let peer = peer_of t name in
      if respect_breakers && breaker_open peer then
        over_peers ~respect_breakers ~skipped:(name :: skipped) ~last_err rest
      else begin
        let rec attempts n backoff =
          match send peer with
          | Ok r ->
            note_success peer;
            Ok r
          | Error msg ->
            note_failure t peer;
            if n > 1 && not (breaker_open peer) then begin
              count t "route.retries";
              Thread.delay backoff;
              attempts (n - 1) (backoff *. 2.)
            end
            else begin
              if rest <> [] || (respect_breakers && skipped <> []) then begin
                count t "route.failovers";
                Log.info (fun m -> m "failing over past shard %s: %s" name msg)
              end;
              over_peers ~respect_breakers ~skipped ~last_err:(Some msg) rest
            end
        in
        attempts (max 1 t.cfg.retries) (float_of_int t.cfg.backoff_ms /. 1000.)
      end
  in
  over_peers ~respect_breakers:true ~skipped:[] ~last_err:None plan

(* The canonical key of a query, canonicalized once per distinct query. *)
let class_key memo q = (fst (Res_engine.Query_memo.keyed memo q)).Res_engine.Canon.key

(* Routing key of a ["QUERY | FACTS"] body (or a bare query): the
   canonical key when the query parses — the whole renaming/mirror class
   shares a shard — and the trimmed text otherwise (the shard will
   answer the parse error; which shard does not matter). *)
let routing_key memo body =
  let q_s =
    match String.index_opt body '|' with Some i -> String.sub body 0 i | None -> body
  in
  let q_s = String.trim q_s in
  match Res_cq.Parser.query_opt q_s with Ok q -> class_key memo q | Error _ -> q_s

let starts_with prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let count_reply t kind reply =
  let outcome =
    if starts_with "ok" reply then "ok"
    else if starts_with "busy" reply then "busy"
    else if starts_with "timeout" reply then "timeout"
    else "error"
  in
  count t (Printf.sprintf "requests.%s.%s" kind outcome)

let with_timeout_prefix timeout_ms rest =
  match timeout_ms with
  | Some ms -> Printf.sprintf "timeout=%d %s" ms rest
  | None -> rest

(* --- scatter-gather batches ---------------------------------------------- *)

(* Group by owning shard, preserving input positions; each group is one
   upstream [batch], each group's failover plan starts at its own owner. *)
let group_by_owner t keyed_items =
  let groups : (string, (string * (int * 'a) list)) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (i, item, key) ->
      match Ring.route t.ring key with
      | None -> ()
      | Some owner -> begin
        match Hashtbl.find_opt groups owner with
        | Some (k0, items) -> Hashtbl.replace groups owner (k0, (i, item) :: items)
        | None -> Hashtbl.replace groups owner (key, [ (i, item) ])
      end)
    keyed_items;
  Hashtbl.fold (fun _ (key, items) acc -> (key, List.rev items) :: acc) groups []

let forward_batch t cache ~timeout_ms bodies =
  let keyed = List.mapi (fun i b -> (i, b, routing_key t.memo b)) bodies in
  let groups = group_by_owner t keyed in
  let results = Array.make (List.length bodies) None in
  let rec run = function
    | [] ->
      let items =
        Array.to_list results |> List.map (function Some s -> s | None -> "error")
      in
      Ok (Protocol.ok (String.concat " ;; " items))
    | (key, items) :: rest -> begin
      let line =
        "batch "
        ^ with_timeout_prefix timeout_ms (String.concat " ;; " (List.map snd items))
      in
      match forward t ~key (fun peer -> send_text cache peer line) with
      | Error e -> Error e
      | Ok reply when starts_with "ok " reply || reply = "ok" ->
        let payload = String.sub reply 3 (max 0 (String.length reply - 3)) in
        let parts =
          if payload = "" then []
          else List.map String.trim (Protocol.split_on_string ";;" payload)
        in
        if List.length parts <> List.length items then
          Error (Protocol.error "shard answered a different number of batch items")
        else begin
          List.iter2 (fun (i, _) item -> results.(i) <- Some (String.trim item)) items parts;
          run rest
        end
      | Ok other ->
        (* busy / error / timeout from the shard: the whole batch answers
           it — partial answers would desync the item count *)
        Error other
    end
  in
  run groups

(* --- binary bulk forwarding ---------------------------------------------- *)

let forward_bulk t cache ~timeout_ms instances =
  let keyed =
    List.mapi
      (fun i (inst : Res_engine.Batch.instance) ->
        (i, inst, class_key t.memo inst.query))
      instances
  in
  let groups = group_by_owner t keyed in
  let results = Array.make (List.length instances) Frame.Unbreakable in
  let rec run = function
    | [] -> Frame.encode_reply (Frame.Items (Array.to_list results))
    | (key, items) :: rest -> begin
      let payload =
        Frame.encode_request (Frame.Bulk { timeout_ms; instances = List.map snd items })
      in
      match forward t ~key (fun peer -> send_frame cache peer payload) with
      | Error e ->
        (* [e] is a protocol error line; carry its message binary-side *)
        Frame.encode_reply
          (Frame.Error (if starts_with "error " e then String.sub e 6 (String.length e - 6) else e))
      | Ok reply -> begin
        match Frame.decode_reply reply with
        | Ok (Frame.Items rs) when List.length rs = List.length items ->
          List.iter2 (fun (i, _) r -> results.(i) <- r) items rs;
          run rest
        | Ok (Frame.Items _) ->
          Frame.encode_reply (Frame.Error "shard answered a different number of bulk items")
        | Ok (Frame.Error msg) -> Frame.encode_reply (Frame.Error msg)
        | Error msg -> Frame.encode_reply (Frame.Error msg)
      end
    end
  in
  run groups

(* --- watch pinning ------------------------------------------------------- *)

(* "ok watch=SID tail" from the shard becomes "ok watch=RID tail" at the
   client; the router remembers RID -> (shard, SID). *)
let adopt_watch t peer_name reply =
  let prefix = "ok watch=" in
  if not (starts_with prefix reply) then reply
  else begin
    let rest = String.sub reply (String.length prefix) (String.length reply - String.length prefix) in
    let id_s, tail =
      match String.index_opt rest ' ' with
      | Some i -> (String.sub rest 0 i, String.sub rest i (String.length rest - i))
      | None -> (rest, "")
    in
    match int_of_string_opt id_s with
    | None -> reply
    | Some sid ->
      let rid =
        Mutex.protect t.watch_lock (fun () ->
            let rid = t.next_rid in
            t.next_rid <- rid + 1;
            Hashtbl.replace t.watches rid (peer_name, sid);
            rid)
      in
      Printf.sprintf "%s%d%s" prefix rid tail
  end

(* Replies are "ok watch=SID ..." — rewrite the single well-known
   position back to the router-global id. *)
let rewrite_watch_back ~rid ~sid reply =
  let prefix = Printf.sprintf "ok watch=%d" sid in
  if starts_with prefix reply then
    Printf.sprintf "ok watch=%d%s" rid
      (String.sub reply (String.length prefix) (String.length reply - String.length prefix))
  else reply

let find_watch t rid = Mutex.protect t.watch_lock (fun () -> Hashtbl.find_opt t.watches rid)

let drop_watch t rid = Mutex.protect t.watch_lock (fun () -> Hashtbl.remove t.watches rid)

(* A pinned forward: the session lives on one shard, so no failover —
   its loss is reported honestly instead of silently re-registering an
   empty session elsewhere. *)
let forward_pinned t cache peer_name line =
  let peer = peer_of t peer_name in
  match send_text cache peer line with
  | Ok reply ->
    note_success peer;
    reply
  | Error msg ->
    note_failure t peer;
    Protocol.error (msg ^ " (watch sessions are pinned to their shard)")

(* --- request execution --------------------------------------------------- *)

let stats_reply t =
  let open_breakers =
    Hashtbl.fold (fun _ p acc -> if breaker_open p then acc + 1 else acc) t.peers 0
  in
  Protocol.stats_line
    (("router.protocol.version", string_of_int Protocol.version)
     :: ("ring.shards", string_of_int (List.length (Ring.members t.ring)))
     :: ("ring.replicas", string_of_int (Ring.replicas t.ring))
     :: ("breaker.open", string_of_int open_breakers)
     :: Metrics.render t.metrics)

(* One request on a fresh short-timeout connection: health probes and
   the fleet-wide shutdown. *)
let ask peer line =
  let u = Net.connect ~recv_timeout:2.0 peer.p_addr in
  Fun.protect
    ~finally:(fun () -> Net.close u)
    (fun () ->
      output_string u.oc (line ^ "\n");
      flush u.oc;
      input_line u.ic)

let shutdown_shards t =
  Hashtbl.iter
    (fun _ peer ->
      try ignore (ask peer "shutdown") with End_of_file | Sys_error _ | Unix.Unix_error _ -> ())
    t.peers

let execute t cache line =
  match Protocol.parse line with
  | Error msg ->
    count t "requests.invalid.error";
    Net.Reply (Protocol.error msg)
  | Ok Protocol.Ping ->
    count t "requests.ping.ok";
    Net.Reply (Protocol.ok "pong")
  | Ok Protocol.Stats ->
    count t "requests.stats.ok";
    Net.Reply (stats_reply t)
  | Ok Protocol.Stats_prom ->
    count t "requests.stats_prom.ok";
    Net.Reply (Protocol.prom_reply (Metrics.render_prometheus t.metrics))
  | Ok Protocol.Quit ->
    count t "requests.quit.ok";
    Net.Close (Protocol.ok "bye")
  | Ok Protocol.Shutdown ->
    count t "requests.shutdown.ok";
    (* one verb takes the whole fleet down *)
    shutdown_shards t;
    Net.Shutdown (Protocol.ok "shutting down")
  | Ok (Protocol.Classify q_s) ->
    let key = routing_key t.memo q_s in
    let r =
      match forward t ~key (fun peer -> send_text cache peer line) with
      | Ok reply -> reply
      | Error e -> e
    in
    count_reply t "classify" r;
    Net.Reply r
  | Ok (Protocol.Solve { timeout_ms = _; body }) ->
    let key = routing_key t.memo body in
    let r =
      match forward t ~key (fun peer -> send_text cache peer line) with
      | Ok reply -> reply
      | Error e -> e
    in
    count_reply t "solve" r;
    Net.Reply r
  | Ok (Protocol.Resp { timeout_ms = _; fact = _; body }) ->
    (* route by the instance body (the query class), not the fact: every
       responsibility question about one instance lands on the shard
       whose engine caches that instance's solutions *)
    let key = routing_key t.memo body in
    let r =
      match forward t ~key (fun peer -> send_text cache peer line) with
      | Ok reply -> reply
      | Error e -> e
    in
    count_reply t "resp" r;
    Net.Reply r
  | Ok (Protocol.Batch { timeout_ms; bodies }) ->
    let r =
      match forward_batch t cache ~timeout_ms bodies with Ok reply -> reply | Error e -> e
    in
    count_reply t "batch" r;
    Net.Reply r
  | Ok (Protocol.Watch_register { timeout_ms = _; body }) ->
    let key = routing_key t.memo body in
    let r =
      match
        forward t ~key (fun peer ->
            Result.map (fun reply -> (peer.p_name, reply)) (send_text cache peer line))
      with
      | Ok (peer_name, reply) -> adopt_watch t peer_name reply
      | Error e -> e
    in
    count_reply t "watch_register" r;
    Net.Reply r
  | Ok (Protocol.Watch_delta { timeout_ms; id; deltas }) -> begin
    match find_watch t id with
    | None ->
      count t "requests.watch_delta.error";
      Net.Reply (Protocol.error (Printf.sprintf "no such watch id %d" id))
    | Some (peer_name, sid) ->
      let line =
        "watch delta "
        ^ with_timeout_prefix timeout_ms (Printf.sprintf "%d %s" sid deltas)
      in
      let r = rewrite_watch_back ~rid:id ~sid (forward_pinned t cache peer_name line) in
      count_reply t "watch_delta" r;
      Net.Reply r
  end
  | Ok (Protocol.Watch_close id) -> begin
    match find_watch t id with
    | None ->
      count t "requests.watch_close.error";
      Net.Reply (Protocol.error (Printf.sprintf "no such watch id %d" id))
    | Some (peer_name, sid) ->
      let r =
        rewrite_watch_back ~rid:id ~sid
          (forward_pinned t cache peer_name (Printf.sprintf "watch close %d" sid))
      in
      if starts_with "ok" r then drop_watch t id;
      count_reply t "watch_close" r;
      Net.Reply r
  end

let execute_frame t cache request =
  match Result.bind request Frame.decode_request with
  | Error msg ->
    count t "requests.bulk.error";
    Frame.encode_reply (Frame.Error msg)
  | Ok (Frame.Bulk { timeout_ms; instances }) ->
    let r = forward_bulk t cache ~timeout_ms instances in
    count t "requests.bulk.ok";
    r

(* Each client connection keeps its own upstream connections, closed
   with it. *)
let handler t () =
  let cache : cache = Hashtbl.create 4 in
  {
    Net.line = execute t cache;
    frame = execute_frame t cache;
    finish = (fun () -> close_cache cache);
  }

(* --- health ---------------------------------------------------------------- *)

(* Health probes: a fresh short-timeout connection and a [ping] per
   shard per period.  Success closes the breaker immediately (the
   half-open probe); failure counts like any other, so a shard that
   died between requests is discovered before a client pays the
   connect timeout. *)
let health_loop t =
  let probe peer =
    match ask peer "ping" with
    | "ok pong" -> note_success peer
    | _ -> note_failure t peer
    | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> note_failure t peer
  in
  let period = float_of_int t.cfg.health_period_ms /. 1000. in
  let running () = Net.running t.listener in
  while running () do
    Hashtbl.iter (fun _ p -> if running () then probe p) t.peers;
    (* sleep in small slices so stop is not delayed by a long period *)
    let slept = ref 0. in
    while running () && !slept < period do
      Thread.delay 0.05;
      slept := !slept +. 0.05
    done
  done

let route_key t key = Option.map (fun n -> (peer_of t n).p_addr) (Ring.route t.ring key)

(* The router's part of {!Net.stop}: the health thread is its only
   thread besides the listener's own. *)
let drain t =
  Log.info (fun m -> m "router stopping");
  Option.iter Thread.join t.health_thread

let start cfg =
  if cfg.shards = [] then invalid_arg "Router.start: at least one shard required";
  let names = List.map Net.address_to_string cfg.shards in
  let ring = Ring.create ~replicas:cfg.replicas names in
  let peers = Hashtbl.create (List.length names) in
  List.iter2
    (fun name addr ->
      if not (Hashtbl.mem peers name) then
        Hashtbl.replace peers name
          { p_addr = addr; p_name = name; p_lock = Mutex.create (); fails = 0; open_until = 0. })
    names cfg.shards;
  let metrics = Metrics.create () in
  let t =
    {
      cfg;
      ring;
      peers;
      metrics;
      latency = Metrics.histogram metrics "latency.request";
      memo = Res_engine.Query_memo.create ();
      listener = Net.listen ~cat:"router" cfg.address;
      health_thread = None;
      watch_lock = Mutex.create ();
      watches = Hashtbl.create 16;
      next_rid = 1;
    }
  in
  Metrics.gauge metrics "breaker.open" (fun () ->
      float_of_int
        (Hashtbl.fold (fun _ p acc -> if breaker_open p then acc + 1 else acc) t.peers 0));
  Metrics.gauge metrics "watches.pinned" (fun () ->
      float_of_int (Mutex.protect t.watch_lock (fun () -> Hashtbl.length t.watches)));
  Metrics.gauge metrics "connections.active" (fun () -> float_of_int (Net.active t.listener));
  Metrics.gauge metrics "router.canon_misses" (fun () ->
      float_of_int (Res_engine.Query_memo.misses t.memo));
  if cfg.health_period_ms > 0 then t.health_thread <- Some (Thread.create health_loop t);
  Net.serve t.listener ~drain:(fun () -> drain t) (Net.lines ~latency:t.latency (handler t));
  Log.info (fun m ->
      m "routing %s over %d shards (%d replicas, retries %d, breaker %d/%dms)"
        (Net.address_to_string cfg.address) (List.length names) cfg.replicas cfg.retries
        cfg.breaker_threshold cfg.breaker_cooldown_ms);
  t

let stop t = Net.stop t.listener
let wait t = Net.wait t.listener
