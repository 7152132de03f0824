(* Client-side helpers for the tests that drive a live server or router
   over a Unix-domain socket. *)

module Net = Res_server.Net

let temp_socket_path =
  let count = ref 0 in
  fun () ->
    incr count;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "res-test-%d-%d.sock" (Unix.getpid ()) !count)

let connect path =
  let c = Net.connect (Net.Unix_socket path) in
  (c.fd, c.ic, c.oc)

let request ic oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

let starts_with prefix s = String.starts_with ~prefix s
