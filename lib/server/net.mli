(** The socket front end shared by the shard {!Server} and the router:
    addresses, bind and connect, the accept thread with its registry of
    connection threads, the line/frame connection loop, and graceful
    stop.

    A listener is made in two steps.  {!listen} binds and listens; it is
    the step that can fail, so an owner acquires every socket before it
    starts threads.  {!serve} then spawns the accept thread, which runs
    one thread per connection.  {!stop} retires it all:
    + the accept socket closes (a Unix-socket file is removed);
    + the read side of every live connection is half-closed, so readers
      see EOF once their current request is answered while pending
      replies are still delivered;
    + the owner's [drain] hook runs (cancel in-flight work, drain worker
      queues, ...);
    + every connection thread is joined. *)

type address =
  | Unix_socket of string
      (** path; a stale socket file (nothing answers on it) is replaced,
          a live one is refused *)
  | Tcp of string * int  (** host and port, e.g. [("127.0.0.1", 7227)] *)

val address_of_string : string -> (address, string) result
(** Command-line address syntax: a string containing ['/'] is a socket
    path, all digits is a port on 127.0.0.1, ["HOST:PORT"] is TCP, and
    anything else (including [""]) is an error. *)

val address_to_string : address -> string

(** One open connection, either side. *)
type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

val connect : ?recv_timeout:float -> ?retries:int -> address -> conn
(** Connect to a listener.  [retries] (default 0) more attempts are made,
    100 ms apart, while the address refuses or does not exist yet.
    [recv_timeout] (seconds) bounds every read on the connection.
    @raise Unix.Unix_error when no attempt succeeds. *)

val close : conn -> unit
(** Shut down and close; errors are ignored. *)

(** {1 Listeners} *)

type t

val listen : ?cat:string -> address -> t
(** Bind and listen; no thread runs until {!serve}.  A Unix-socket path
    is probed first: if a listener answers there, [Unix_error
    (EADDRINUSE, _, _)] is raised and the file is left alone; if nothing
    answers, the stale file is replaced.  The socket is closed again when
    [bind] or [listen] fails.  With [cat], accepts are traced as
    [<cat>.accept] instants and {!lines} spans requests and replies as
    [<cat>.request] and [<cat>.reply].
    @raise Unix.Unix_error when the address cannot be bound. *)

val serve : t -> drain:(unit -> unit) -> (t -> conn -> unit) -> unit
(** Start the accept thread.  Each connection runs the given function on
    its own thread and is closed when the function returns or raises.
    [drain] is the owner's part of {!stop}. *)

val active : t -> int
(** Live connections. *)

val running : t -> bool
(** [false] from the moment {!stop} begins. *)

val stop : t -> unit
(** Graceful stop, in the order given above.  Idempotent; a concurrent
    caller blocks until the stop completes, except a connection thread
    of this listener, which returns at once (the leader joins it).  Safe
    to call from a connection thread. *)

val wait : t -> unit
(** Block until the listener has fully stopped. *)

(** {1 The line/frame connection loop} *)

type action =
  | Reply of string  (** answer and keep serving *)
  | Close of string  (** answer and hang up *)
  | Shutdown of string  (** answer, then {!stop} the listener *)

type handler = {
  line : string -> action;  (** a non-blank text request line *)
  frame : (string, string) result -> string;
      (** a binary request payload, or the error of a malformed frame;
          returns the reply payload.  After a malformed frame the stream
          is out of sync, so the connection hangs up. *)
  finish : unit -> unit;  (** the connection ended *)
}

val lines : latency:Metrics.histogram -> (unit -> handler) -> t -> conn -> unit
(** The protocol loop, for {!serve}: one handler per connection (made by
    the given function), one request at a time.  The first byte of a
    request picks its format: {!Frame.magic} starts a frame, anything
    else a text line.  Each request is timed into [latency] before its
    reply is written.  A handler that raises answers [error internal:
    <exn>] (or the frame equivalent) and the connection keeps serving:
    every request gets exactly one reply. *)
