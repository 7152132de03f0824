(* Clocks, percentiles, process accounting and child processes. *)

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a sorted array, with the number of samples
   strictly beyond the chosen rank (the tail a reader can trust it on). *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then (nan, 0)
  else
    let rank = max 1 (min n (int_of_float (Float.ceil (p /. 100. *. float n)))) in
    (sorted.(rank - 1), n - rank)

(* ---- /proc accounting ------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

(* Linux reports CPU time in clock ticks of 1/100 s (USER_HZ). *)
let ticks_per_s = 100.

(* user + system CPU seconds of a process. *)
let proc_cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* fields after the parenthesised command name; utime and stime are
     fields 14 and 15 of the whole line *)
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. ticks_per_s

let self_cpu_s () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

(* Peak resident set size in MiB (VmHWM). *)
let proc_peak_rss_mb pid =
  let s = read_file (Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid)) in
  String.split_on_char '\n' s
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] -> Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some (float kb /. 1024.))
         | _ -> None)
  |> Option.value ~default:nan

let nproc () =
  read_file "/proc/cpuinfo" |> String.split_on_char '\n'
  |> List.filter (fun l -> String.length l > 9 && String.sub l 0 9 = "processor")
  |> List.length

(* ---- child processes -------------------------------------------------- *)

let children : int list ref = ref []

let spawn ~log argv =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid = Unix.create_process argv.(0) argv Unix.stdin fd fd in
  Unix.close fd;
  children := pid :: !children;
  pid

(* Wait for a child to exit, killing it after [grace] seconds. *)
let reap ?(grace = 5.) pid =
  let deadline = now () +. grace in
  let rec loop () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      loop ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  loop ();
  children := List.filter (( <> ) pid) !children

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

(* ---- line-protocol connections ---------------------------------------- *)

type conn = { ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let rec connect_wait ?(tries = 500) path =
  match connect path with
  | Some c -> c
  | None when tries > 0 ->
    Unix.sleepf 0.01;
    connect_wait ~tries:(tries - 1) path
  | None -> failwith ("cannot connect to " ^ path)

let request c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let close c = close_in_noerr c.ic

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* The [key=value] field of a reply, up to the next space. *)
let field key reply =
  let k = key ^ "=" in
  let n = String.length reply and m = String.length k in
  let rec find i =
    if i + m > n then None
    else if String.sub reply i m = k && (i = 0 || reply.[i - 1] = ' ') then
      let j = try String.index_from reply (i + m) ' ' with Not_found -> n in
      Some (String.sub reply (i + m) (j - i - m))
    else find (i + 1)
  in
  find 0
