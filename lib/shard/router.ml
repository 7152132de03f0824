module Server = Res_server.Server
module Protocol = Res_server.Protocol
module Metrics = Res_server.Metrics
module Frame = Res_server.Frame

let src = Logs.Src.create "resilience.router" ~doc:"Resilience shard router"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  address : Server.address;
  shards : Server.address list;
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
  p_addr : Server.address;
  p_name : string;
  p_lock : Mutex.t;
  mutable fails : int;  (* consecutive failures *)
  mutable open_until : float;  (* breaker open before this time; 0. = closed *)
}

type state = Running | Stopping | Stopped

type t = {
  cfg : config;
  ring : Ring.t;
  peers : (string, peer) Hashtbl.t;
  metrics : Metrics.t;
  latency : Metrics.histogram;
  listen_fd : Unix.file_descr;
  lock : Mutex.t;
  state_changed : Condition.t;
  mutable state : state;
  mutable conns : (Thread.t * Unix.file_descr) list;
  mutable accept_thread : Thread.t option;
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

type upstream = { up_fd : Unix.file_descr; up_ic : in_channel; up_oc : out_channel }

let connect_addr ?recv_timeout addr =
  let sockaddr, domain =
    match addr with
    | Server.Unix_socket path -> (Unix.ADDR_UNIX path, Unix.PF_UNIX)
    | Server.Tcp (h, p) ->
      let inet =
        try Unix.inet_addr_of_string h
        with Failure _ -> (Unix.gethostbyname h).Unix.h_addr_list.(0)
      in
      (Unix.ADDR_INET (inet, p), Unix.PF_INET)
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sockaddr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  (match recv_timeout with
  | Some s -> ( try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s with Unix.Unix_error _ -> ())
  | None -> ());
  { up_fd = fd; up_ic = Unix.in_channel_of_descr fd; up_oc = Unix.out_channel_of_descr fd }

let close_upstream u =
  (try Unix.shutdown u.up_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close u.up_fd with Unix.Unix_error _ -> ()

(* The per-client-thread cache of upstream connections, one per shard. *)
type cache = (string, upstream) Hashtbl.t

let cached_conn (cache : cache) peer =
  match Hashtbl.find_opt cache peer.p_name with
  | Some u -> u
  | None ->
    let u = connect_addr peer.p_addr in
    Hashtbl.replace cache peer.p_name u;
    u

let drop_conn (cache : cache) peer =
  match Hashtbl.find_opt cache peer.p_name with
  | Some u ->
    Hashtbl.remove cache peer.p_name;
    close_upstream u
  | None -> ()

let close_cache (cache : cache) = Hashtbl.iter (fun _ u -> close_upstream u) cache

(* One text round trip.  Any I/O failure (connect refused, mid-reply EOF,
   reset) is an [Error]: the connection is dropped so the next attempt
   reconnects from scratch. *)
let send_text cache peer line =
  match
    let u = cached_conn cache peer in
    output_string u.up_oc line;
    output_char u.up_oc '\n';
    flush u.up_oc;
    input_line u.up_ic
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
    Frame.write_frame u.up_oc payload;
    Frame.read_frame u.up_ic
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

(* Routing key of a ["QUERY | FACTS"] body (or a bare query): the
   canonical key when the query parses — the whole renaming/mirror class
   shares a shard — and the trimmed text otherwise (the shard will
   answer the parse error; which shard does not matter). *)
let routing_key body =
  let q_s =
    match String.index_opt body '|' with Some i -> String.sub body 0 i | None -> body
  in
  let q_s = String.trim q_s in
  match Res_cq.Parser.query_opt q_s with
  | Ok q -> (Res_engine.Canon.keyed q).Res_engine.Canon.key
  | Error _ -> q_s

let starts_with prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let split_on_string sep s =
  let seplen = String.length sep in
  let rec go start acc =
    match
      let rec find i =
        if i + seplen > String.length s then None
        else if String.sub s i seplen = sep then Some i
        else find (i + 1)
      in
      find start
    with
    | Some i -> go (i + seplen) (String.sub s start (i - start) :: acc)
    | None -> List.rev (String.sub s start (String.length s - start) :: acc)
  in
  go 0 []

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
  let keyed = List.mapi (fun i b -> (i, b, routing_key b)) bodies in
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
          else List.map String.trim (split_on_string ";;" payload)
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
        (i, inst, (Res_engine.Canon.keyed inst.query).Res_engine.Canon.key))
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

let shutdown_shards t =
  Hashtbl.iter
    (fun _ peer ->
      try
        let u = connect_addr ~recv_timeout:2.0 peer.p_addr in
        (try
           output_string u.up_oc "shutdown\n";
           flush u.up_oc;
           ignore (input_line u.up_ic)
         with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
        close_upstream u
      with Unix.Unix_error _ | Sys_error _ -> ())
    t.peers

let rec execute t cache line =
  match Protocol.parse line with
  | Error msg ->
    count t "requests.invalid.error";
    `Reply (Protocol.error msg)
  | Ok Protocol.Ping ->
    count t "requests.ping.ok";
    `Reply (Protocol.ok "pong")
  | Ok Protocol.Stats ->
    count t "requests.stats.ok";
    `Reply (stats_reply t)
  | Ok Protocol.Stats_prom ->
    count t "requests.stats_prom.ok";
    `Reply (Protocol.prom_reply (Metrics.render_prometheus t.metrics))
  | Ok Protocol.Quit ->
    count t "requests.quit.ok";
    `Close (Protocol.ok "bye")
  | Ok Protocol.Shutdown ->
    count t "requests.shutdown.ok";
    `Shutdown (Protocol.ok "shutting down")
  | Ok (Protocol.Classify q_s) ->
    let key = routing_key q_s in
    let r =
      match forward t ~key (fun peer -> send_text cache peer line) with
      | Ok reply -> reply
      | Error e -> e
    in
    count_reply t "classify" r;
    `Reply r
  | Ok (Protocol.Solve { timeout_ms = _; body }) ->
    let key = routing_key body in
    let r =
      match forward t ~key (fun peer -> send_text cache peer line) with
      | Ok reply -> reply
      | Error e -> e
    in
    count_reply t "solve" r;
    `Reply r
  | Ok (Protocol.Resp { timeout_ms = _; fact = _; body }) ->
    (* route by the instance body (the query class), not the fact: every
       responsibility question about one instance lands on the shard
       whose engine caches that instance's solutions *)
    let key = routing_key body in
    let r =
      match forward t ~key (fun peer -> send_text cache peer line) with
      | Ok reply -> reply
      | Error e -> e
    in
    count_reply t "resp" r;
    `Reply r
  | Ok (Protocol.Batch { timeout_ms; bodies }) ->
    let r =
      match forward_batch t cache ~timeout_ms bodies with Ok reply -> reply | Error e -> e
    in
    count_reply t "batch" r;
    `Reply r
  | Ok (Protocol.Watch_register { timeout_ms = _; body }) ->
    let key = routing_key body in
    let r =
      match
        forward t ~key (fun peer ->
            Result.map (fun reply -> (peer.p_name, reply)) (send_text cache peer line))
      with
      | Ok (peer_name, reply) -> adopt_watch t peer_name reply
      | Error e -> e
    in
    count_reply t "watch_register" r;
    `Reply r
  | Ok (Protocol.Watch_delta { timeout_ms; id; deltas }) -> begin
    match find_watch t id with
    | None ->
      count t "requests.watch_delta.error";
      `Reply (Protocol.error (Printf.sprintf "no such watch id %d" id))
    | Some (peer_name, sid) ->
      let line =
        "watch delta "
        ^ with_timeout_prefix timeout_ms (Printf.sprintf "%d %s" sid deltas)
      in
      let r = rewrite_watch_back ~rid:id ~sid (forward_pinned t cache peer_name line) in
      count_reply t "watch_delta" r;
      `Reply r
  end
  | Ok (Protocol.Watch_close id) -> begin
    match find_watch t id with
    | None ->
      count t "requests.watch_close.error";
      `Reply (Protocol.error (Printf.sprintf "no such watch id %d" id))
    | Some (peer_name, sid) ->
      let r =
        rewrite_watch_back ~rid:id ~sid
          (forward_pinned t cache peer_name (Printf.sprintf "watch close %d" sid))
      in
      if starts_with "ok" r then drop_watch t id;
      count_reply t "watch_close" r;
      `Reply r
  end

(* --- connection/accept/health loops -------------------------------------- *)

and unregister t fd =
  Mutex.protect t.lock (fun () ->
      t.conns <- List.filter (fun (_, fd') -> fd' != fd) t.conns)

and stop t =
  let join_state =
    Mutex.protect t.lock (fun () ->
        match t.state with
        | Running ->
          t.state <- Stopping;
          `Lead
        | Stopping -> `Follow
        | Stopped -> `Done)
  in
  match join_state with
  | `Done -> ()
  | `Follow ->
    Mutex.lock t.lock;
    while t.state <> Stopped do
      Condition.wait t.state_changed t.lock
    done;
    Mutex.unlock t.lock
  | `Lead ->
    Log.info (fun m -> m "router stopping");
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    let self = Thread.id (Thread.self ()) in
    (match t.accept_thread with
    | Some th when Thread.id th <> self -> Thread.join th
    | _ -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (match t.cfg.address with
    | Server.Unix_socket path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
    | Server.Tcp _ -> ());
    (match t.health_thread with
    | Some th when Thread.id th <> self -> Thread.join th
    | _ -> ());
    let conns = Mutex.protect t.lock (fun () -> t.conns) in
    List.iter
      (fun (_, fd) -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
      conns;
    List.iter (fun (th, _) -> if Thread.id th <> self then Thread.join th) conns;
    Mutex.protect t.lock (fun () ->
        t.state <- Stopped;
        Condition.broadcast t.state_changed);
    Log.info (fun m -> m "router stopped")

and conn_loop t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let cache : cache = Hashtbl.create 4 in
  let send line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  let read_request () =
    match input_char ic with
    | exception (End_of_file | Sys_error _) -> `Eof
    | exception Unix.Unix_error _ -> `Eof
    | c when c = Frame.magic -> begin
      match Frame.read_frame_body ic with
      | Ok payload -> `Frame payload
      | Error msg -> `Frame_error msg
      | exception (End_of_file | Sys_error _) -> `Eof
    end
    | '\n' -> `Line ""
    | c ->
      let b = Buffer.create 128 in
      Buffer.add_char b c;
      let rec go () =
        match input_char ic with
        | exception (End_of_file | Sys_error _) -> `Line (Buffer.contents b)
        | exception Unix.Unix_error _ -> `Line (Buffer.contents b)
        | '\n' -> `Line (Buffer.contents b)
        | c ->
          Buffer.add_char b c;
          go ()
      in
      go ()
  in
  let latency_histogram = t.latency in
  let rec loop () =
    match read_request () with
    | `Eof -> ()
    | `Line line when String.trim line = "" -> loop ()
    | `Line line -> begin
      let t0 = now () in
      let action = execute t cache line in
      Metrics.observe latency_histogram (now () -. t0);
      match action with
      | `Reply reply ->
        send reply;
        loop ()
      | `Close reply -> send reply
      | `Shutdown reply ->
        send reply;
        shutdown_shards t;
        stop t
    end
    | `Frame payload -> begin
      let t0 = now () in
      let reply =
        match Frame.decode_request payload with
        | Error msg ->
          count t "requests.bulk.error";
          Frame.encode_reply (Frame.Error msg)
        | Ok (Frame.Bulk { timeout_ms; instances }) ->
          let r = forward_bulk t cache ~timeout_ms instances in
          count t "requests.bulk.ok";
          r
      in
      Metrics.observe latency_histogram (now () -. t0);
      Frame.write_frame oc reply;
      loop ()
    end
    | `Frame_error msg ->
      count t "requests.bulk.error";
      Frame.write_frame oc (Frame.encode_reply (Frame.Error msg))
  in
  (try loop () with _ -> ());
  close_cache cache;
  unregister t fd;
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

and accept_loop t =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _) -> loop ()
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
      let accepted =
        Mutex.protect t.lock (fun () ->
            if t.state <> Running then false
            else begin
              let th = Thread.create (fun () -> conn_loop t fd) () in
              t.conns <- (th, fd) :: t.conns;
              true
            end)
      in
      if not accepted then (try Unix.close fd with Unix.Unix_error _ -> ());
      loop ()
  in
  loop ()

(* Health probes: a fresh short-timeout connection and a [ping] per
   shard per period.  Success closes the breaker immediately (the
   half-open probe); failure counts like any other, so a shard that
   died between requests is discovered before a client pays the
   connect timeout. *)
and health_loop t =
  let probe peer =
    match
      let u = connect_addr ~recv_timeout:2.0 peer.p_addr in
      Fun.protect
        ~finally:(fun () -> close_upstream u)
        (fun () ->
          output_string u.up_oc "ping\n";
          flush u.up_oc;
          input_line u.up_ic)
    with
    | "ok pong" -> note_success peer
    | _ -> note_failure t peer
    | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> note_failure t peer
  in
  let period = float_of_int t.cfg.health_period_ms /. 1000. in
  let running () = Mutex.protect t.lock (fun () -> t.state = Running) in
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

let start cfg =
  if cfg.shards = [] then invalid_arg "Router.start: at least one shard required";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let names = List.map Server.address_to_string cfg.shards in
  let ring = Ring.create ~replicas:cfg.replicas names in
  let peers = Hashtbl.create (List.length names) in
  List.iter2
    (fun name addr ->
      if not (Hashtbl.mem peers name) then
        Hashtbl.replace peers name
          { p_addr = addr; p_name = name; p_lock = Mutex.create (); fails = 0; open_until = 0. })
    names cfg.shards;
  let listen_fd = Server.bind_listener cfg.address in
  Unix.listen listen_fd 64;
  let metrics = Metrics.create () in
  let t =
    {
      cfg;
      ring;
      peers;
      metrics;
      latency = Metrics.histogram metrics "latency.request";
      listen_fd;
      lock = Mutex.create ();
      state_changed = Condition.create ();
      state = Running;
      conns = [];
      accept_thread = None;
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
  Metrics.gauge metrics "connections.active" (fun () ->
      float_of_int (Mutex.protect t.lock (fun () -> List.length t.conns)));
  t.accept_thread <- Some (Thread.create accept_loop t);
  if cfg.health_period_ms > 0 then t.health_thread <- Some (Thread.create health_loop t);
  Log.info (fun m ->
      m "routing %s over %d shards (%d replicas, retries %d, breaker %d/%dms)"
        (Server.address_to_string cfg.address) (List.length names) cfg.replicas cfg.retries
        cfg.breaker_threshold cfg.breaker_cooldown_ms);
  t

let wait t =
  Mutex.lock t.lock;
  while t.state <> Stopped do
    Condition.wait t.state_changed t.lock
  done;
  Mutex.unlock t.lock
