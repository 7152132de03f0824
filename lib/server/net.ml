let src = Logs.Src.create "resilience.net" ~doc:"Resilience socket front end"

module Log = (val Logs.src_log src : Logs.LOG)

module Obs = Res_obs.Obs

type address = Unix_socket of string | Tcp of string * int

let address_to_string = function
  | Unix_socket p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

let address_of_string s =
  let invalid () = Error (Printf.sprintf "invalid address %S: expected PATH, HOST:PORT or PORT" s) in
  if s = "" then Error "empty address"
  else if String.contains s '/' then Ok (Unix_socket s)
  else
    match int_of_string_opt s with
    | Some p -> Ok (Tcp ("127.0.0.1", p))
    | None -> begin
      match String.rindex_opt s ':' with
      | Some i -> begin
        let host = String.sub s 0 i in
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | Some p when host <> "" -> Ok (Tcp (host, p))
        | _ -> invalid ()
      end
      | None -> invalid ()
    end

let sockaddr = function
  | Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp (host, port) ->
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
    in
    (Unix.PF_INET, Unix.ADDR_INET (inet, port))

let close_fd fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let conn_of fd = { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
let close c = close_fd c.fd

let connect ?recv_timeout ?(retries = 0) addr =
  let domain, sa = sockaddr addr in
  let rec attempt left =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd sa with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when left > 0 ->
      close_fd fd;
      Unix.sleepf 0.1;
      attempt (left - 1)
    | exception e ->
      close_fd fd;
      raise e
  in
  let fd = attempt retries in
  Option.iter
    (fun s -> try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s with Unix.Unix_error _ -> ())
    recv_timeout;
  conn_of fd

let bind addr =
  (match addr with
  | Unix_socket path when Sys.file_exists path -> begin
    (* a live listener keeps its path; a file nothing answers on is the
       leftover of a crashed process and is replaced *)
    match connect addr with
    | c ->
      close c;
      raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path))
    | exception Unix.Unix_error _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  end
  | _ -> ());
  let domain, sa = sockaddr addr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  try
    if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd sa;
    Unix.listen fd 64;
    fd
  with e ->
    close_fd fd;
    raise e

(* --- listeners ----------------------------------------------------------- *)

type state = Running | Stopping | Stopped

type t = {
  address : address;
  listen_fd : Unix.file_descr;
  cat : string option;
  lock : Mutex.t;
  changed : Condition.t;
  mutable state : state;
  mutable conns : (Thread.t * Unix.file_descr) list;
  mutable accept_thread : Thread.t option;
  mutable drain : unit -> unit;
}

let listen ?cat address =
  {
    address;
    listen_fd = bind address;
    cat;
    lock = Mutex.create ();
    changed = Condition.create ();
    state = Running;
    conns = [];
    accept_thread = None;
    drain = ignore;
  }

let active t = Mutex.protect t.lock (fun () -> List.length t.conns)
let running t = Mutex.protect t.lock (fun () -> t.state = Running)

let wait t =
  Mutex.lock t.lock;
  while t.state <> Stopped do
    Condition.wait t.changed t.lock
  done;
  Mutex.unlock t.lock

let stop t =
  let self = Thread.id (Thread.self ()) in
  let role =
    Mutex.protect t.lock (fun () ->
        match t.state with
        | Running ->
          t.state <- Stopping;
          `Lead
        | Stopping when List.exists (fun (th, _) -> Thread.id th = self) t.conns -> `Done
        | Stopping -> `Follow
        | Stopped -> `Done)
  in
  match role with
  | `Done -> ()
  | `Follow -> wait t
  | `Lead ->
    (* [shutdown] (not [close]) wakes a thread blocked in [accept]; the
       fd itself is closed only after the accept thread is joined, so its
       number cannot be recycled under the accept loop's feet *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (match t.accept_thread with Some th when Thread.id th <> self -> Thread.join th | _ -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (match t.address with
    | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Tcp _ -> ());
    (* half-close the read side only: the fd stays valid until its own
       thread releases it, and pending replies still go out *)
    let conns = Mutex.protect t.lock (fun () -> t.conns) in
    List.iter
      (fun (_, fd) -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
      conns;
    (try t.drain () with exn -> Log.err (fun m -> m "drain raised: %s" (Printexc.to_string exn)));
    List.iter (fun (th, _) -> if Thread.id th <> self then Thread.join th) conns;
    Mutex.protect t.lock (fun () ->
        t.state <- Stopped;
        Condition.broadcast t.changed);
    Log.info (fun m -> m "stopped %s" (address_to_string t.address))

let serve t ~drain on_conn =
  (* a client hanging up mid-reply must not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  t.drain <- drain;
  let run fd =
    (try on_conn t (conn_of fd) with _ -> ());
    Mutex.protect t.lock (fun () -> t.conns <- List.filter (fun (_, fd') -> fd' != fd) t.conns);
    close_fd fd
  in
  let rec accept_loop () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _) -> accept_loop ()
    | exception Unix.Unix_error _ -> () (* the listener was shut down *)
    | fd, _ ->
      Option.iter (fun cat -> if Obs.enabled () then Obs.instant ~cat "accept") t.cat;
      let accepted =
        Mutex.protect t.lock (fun () ->
            t.state = Running
            && begin
                 t.conns <- (Thread.create run fd, fd) :: t.conns;
                 true
               end)
      in
      if not accepted then close_fd fd;
      accept_loop ()
  in
  t.accept_thread <- Some (Thread.create accept_loop ())

(* --- the line/frame connection loop ------------------------------------- *)

type action = Reply of string | Close of string | Shutdown of string

type handler = {
  line : string -> action;
  frame : (string, string) result -> string;
  finish : unit -> unit;
}

(* Text and binary share the connection: the first byte of each request
   decides.  {!Frame.magic} (0xF5) is not valid UTF-8 text and never
   starts a protocol verb, so the dispatch is unambiguous. *)
let read_request ic =
  match input_char ic with
  | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> `Eof
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
      | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> `Line (Buffer.contents b)
      | '\n' -> `Line (Buffer.contents b)
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()

let internal exn =
  let msg = Printexc.to_string exn in
  Log.err (fun m -> m "request handler raised: %s" msg);
  "internal: " ^ msg

let lines ~latency make_handler t c =
  let span name f = match t.cat with Some cat -> Obs.span ~cat name f | None -> f () in
  let h = make_handler () in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = span "request" f in
    (* observed before the reply is written: once a client holds a
       response, the corresponding histogram entry is visible *)
    Metrics.observe latency (Unix.gettimeofday () -. t0);
    r
  in
  let send line =
    span "reply" @@ fun () ->
    output_string c.oc line;
    output_char c.oc '\n';
    flush c.oc
  in
  let answer_frame r =
    match h.frame r with
    | reply -> reply
    | exception exn -> Frame.encode_reply (Frame.Error (internal exn))
  in
  let rec loop () =
    match read_request c.ic with
    | `Eof -> ()
    | `Line line when String.trim line = "" -> loop ()
    | `Line line -> begin
      Log.debug (fun m -> m "request: %s" line);
      match
        timed (fun () ->
            try h.line line with exn -> Reply (Protocol.error (internal exn)))
      with
      | Reply reply ->
        send reply;
        loop ()
      | Close reply -> send reply
      | Shutdown reply ->
        (* a client gone before the acknowledgement still stops us *)
        (try send reply with Sys_error _ -> ());
        stop t
    end
    | `Frame payload ->
      Frame.write_frame c.oc (timed (fun () -> answer_frame (Ok payload)));
      loop ()
    | `Frame_error msg -> Frame.write_frame c.oc (answer_frame (Error msg))
  in
  Fun.protect ~finally:h.finish loop
