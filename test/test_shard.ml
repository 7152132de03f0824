(* The sharded service tier (lib/shard): consistent-hash ring balance and
   its exact minimal-remapping guarantees, crash recovery of the
   append-only persistent cache (torn tails, corrupted records), the v5
   binary frame codec, admission-lane shedding, warm restarts through the
   engine's persistence hooks, and the headline differential: a routed
   3-shard fleet answers a mixed workload exactly like one server — and
   keeps answering after a shard is killed mid-run. *)

module Ring = Res_shard.Ring
module Plog = Res_shard.Plog
module Store = Res_shard.Store
module Router = Res_shard.Router
module Frame = Res_server.Frame
module Lanes = Res_server.Lanes
module Server = Res_server.Server
module Metrics = Res_server.Metrics
module Batch = Res_engine.Batch
module Solution = Resilience.Solution

(* --- consistent-hash ring ------------------------------------------------ *)

let members_of_seed st n = List.init n (fun i -> Printf.sprintf "shard-%d-%d" (Random.State.int st 1000) i)

let keys_of_seed st n =
  List.init n (fun i -> Printf.sprintf "key-%d-%d" i (Random.State.int st 1_000_000))

let ring_basics () =
  let r = Ring.create ~replicas:64 [ "a"; "b"; "c"; "b" ] in
  Alcotest.(check (list string)) "members sorted, deduped" [ "a"; "b"; "c" ] (Ring.members r);
  Alcotest.(check int) "replicas" 64 (Ring.replicas r);
  Alcotest.(check bool) "not empty" false (Ring.is_empty r);
  (match Ring.route r "some-key" with
  | Some m -> Alcotest.(check bool) "routes to a member" true (List.mem m (Ring.members r))
  | None -> Alcotest.fail "non-empty ring routed None");
  let succ = Ring.successors r "some-key" in
  Alcotest.(check int) "successors cover every member" 3 (List.length succ);
  Alcotest.(check (list string)) "successors distinct"
    (List.sort_uniq compare succ) (List.sort compare succ);
  Alcotest.(check (option string)) "head of successors = route"
    (Ring.route r "some-key") (List.nth_opt succ 0);
  Alcotest.(check bool) "empty ring" true (Ring.is_empty (Ring.create []));
  Alcotest.(check (option string)) "empty ring routes None" None (Ring.route (Ring.create []) "k")

(* With r virtual points per member the relative imbalance concentrates
   around O(sqrt((log n)/r)); 3x the fair share is far outside that and
   stable across seeds. *)
let prop_ring_balance =
  QCheck.Test.make ~count:60 ~name:"ring: no shard owns > 3x its fair share"
    QCheck.(pair (int_bound 1_000_000) (int_range 2 8))
    (fun (seed, n) ->
      let st = Random.State.make [| seed |] in
      let members = members_of_seed st n in
      let keys = keys_of_seed st 400 in
      let r = Ring.create members in
      let spread = Ring.spread r keys in
      let total = List.fold_left (fun a (_, c) -> a + c) 0 spread in
      if total <> List.length keys then QCheck.Test.fail_report "spread does not sum to #keys";
      let fair = float_of_int total /. float_of_int n in
      List.for_all (fun (_, c) -> float_of_int c <= 3.0 *. fair) spread)

(* Minimal remapping is exact, not probabilistic: adding a member moves
   keys only onto the new member (no key moves between two survivors)... *)
let prop_ring_remap_add =
  QCheck.Test.make ~count:120 ~name:"ring: join remaps keys only onto the new member"
    QCheck.(pair (int_bound 1_000_000) (int_range 2 6))
    (fun (seed, n) ->
      let st = Random.State.make [| seed |] in
      let members = members_of_seed st n in
      let keys = keys_of_seed st 150 in
      let r = Ring.create members in
      let r' = Ring.add r "joined-shard" in
      List.for_all
        (fun k ->
          match (Ring.route r k, Ring.route r' k) with
          | Some before, Some after -> after = before || after = "joined-shard"
          | _ -> false)
        keys)

(* ... and removing a member reassigns only the keys it owned. *)
let prop_ring_remap_remove =
  QCheck.Test.make ~count:120 ~name:"ring: leave remaps only the leaver's keys"
    QCheck.(pair (int_bound 1_000_000) (int_range 2 6))
    (fun (seed, n) ->
      let st = Random.State.make [| seed |] in
      let members = members_of_seed st n in
      let keys = keys_of_seed st 150 in
      let r = Ring.create members in
      let gone = List.nth members (Random.State.int st n) in
      let r' = Ring.remove r gone in
      List.for_all
        (fun k ->
          match Ring.route r k with
          | Some before when before <> gone -> Ring.route r' k = Some before
          | Some _ -> (
            match Ring.route r' k with
            | Some after -> after <> gone
            | None -> false)
          | None -> false)
        keys)

(* --- persistent log: crash recovery -------------------------------------- *)

let temp_name =
  let count = ref 0 in
  fun suffix ->
    incr count;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "res-shard-%d-%d%s" (Unix.getpid ()) !count suffix)

let record_size key value =
  let b = Buffer.create 32 in
  Frame.write_str b key;
  Frame.write_str b value;
  8 + Buffer.length b

let file_size path = (Unix.stat path).Unix.st_size

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd len;
  Unix.close fd

let plog_roundtrip () =
  let path = temp_name ".log" in
  let log = Plog.open_ path in
  Plog.set log "a" "1";
  Plog.set log "b" "2";
  Plog.set log "a" "3";
  Alcotest.(check (option string)) "last wins" (Some "3") (Plog.find log "a");
  Alcotest.(check int) "live bindings" 2 (Plog.count log);
  Alcotest.(check int) "physical records" 3 (Plog.records log);
  Plog.compact log;
  Alcotest.(check int) "compaction drops garbage" 2 (Plog.records log);
  Alcotest.(check (option string)) "compaction keeps last value" (Some "3") (Plog.find log "a");
  Plog.close log;
  let log = Plog.open_ path in
  Alcotest.(check int) "clean reopen loses nothing" 2 (Plog.count log);
  Alcotest.(check int) "clean reopen, no torn tail" 0 (Plog.truncated_bytes log);
  Alcotest.(check (option string)) "recovered binding" (Some "2") (Plog.find log "b");
  Plog.close log;
  Sys.remove path

(* Kill mid-write at an arbitrary byte: the CRC-valid prefix is served
   exactly (last-wins over the complete records), the torn tail is
   discarded, and the log accepts appends again. *)
let prop_plog_crash_recovery =
  QCheck.Test.make ~count:80 ~name:"plog: recovery serves exactly the valid prefix"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let path = temp_name ".crash.log" in
      let n = 1 + Random.State.int st 12 in
      let writes =
        List.init n (fun _ ->
            let key = Printf.sprintf "k%d" (Random.State.int st 5) in
            let value = String.init (Random.State.int st 21) (fun _ ->
                Char.chr (32 + Random.State.int st 95)) in
            (key, value))
      in
      let log = Plog.open_ path in
      List.iter (fun (k, v) -> Plog.set log k v) writes;
      Plog.close log;
      let sizes = List.map (fun (k, v) -> record_size k v) writes in
      let total = List.fold_left ( + ) 0 sizes in
      if file_size path <> total then QCheck.Test.fail_report "on-disk size mismatch";
      let cut = Random.State.int st (total + 1) in
      truncate_file path cut;
      (* how many whole records survive the cut, and what they bind *)
      let rec prefix kept off = function
        | size :: rest when off + size <= cut -> prefix (kept + 1) (off + size) rest
        | _ -> (kept, off)
      in
      let kept, prefix_len = prefix 0 0 sizes in
      let expected = Hashtbl.create 8 in
      List.iteri (fun i (k, v) -> if i < kept then Hashtbl.replace expected k v) writes;
      let log = Plog.open_ path in
      let ok =
        Plog.records log = kept
        && Plog.truncated_bytes log = cut - prefix_len
        && Plog.count log = Hashtbl.length expected
        && List.for_all
             (fun (k, v) -> Hashtbl.find_opt expected k = Some v)
             (Plog.bindings log)
      in
      (* the truncated log is append-able and the append survives *)
      Plog.set log "after-crash" "alive";
      Plog.close log;
      let log = Plog.open_ path in
      let ok =
        ok
        && Plog.truncated_bytes log = 0
        && Plog.find log "after-crash" = Some "alive"
      in
      Plog.close log;
      Sys.remove path;
      ok)

let plog_corrupt_record () =
  let path = temp_name ".crc.log" in
  let log = Plog.open_ path in
  for i = 0 to 4 do
    Plog.set log (Printf.sprintf "k%d" i) (Printf.sprintf "v%d" i)
  done;
  Plog.close log;
  (* flip one payload byte inside the third record: CRC catches it, the
     scan stops there, records 0 and 1 are still served *)
  let offset01 = record_size "k0" "v0" + record_size "k1" "v1" in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let pos = offset01 + 8 in
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let log = Plog.open_ path in
  Alcotest.(check int) "valid prefix only" 2 (Plog.count log);
  Alcotest.(check (option string)) "record before corruption served" (Some "v1") (Plog.find log "k1");
  Alcotest.(check (option string)) "corrupted record dropped" None (Plog.find log "k2");
  Alcotest.(check bool) "tail discarded" true (Plog.truncated_bytes log > 0);
  Plog.close log;
  Sys.remove path

(* --- binary frame codec --------------------------------------------------- *)

let frame_varint_roundtrip () =
  List.iter
    (fun n ->
      let b = Buffer.create 10 in
      Frame.write_varint b n;
      let pos = ref 0 in
      let s = Buffer.contents b in
      Alcotest.(check int) (Printf.sprintf "varint %d" n) n (Frame.read_varint s pos);
      Alcotest.(check int) "consumed exactly" (String.length s) !pos)
    [ 0; 1; 127; 128; 129; 300; 16383; 16384; 1 lsl 31; max_int ];
  Alcotest.check_raises "truncated varint" (Frame.Malformed "truncated varint") (fun () ->
      ignore (Frame.read_varint "\xff" (ref 0)))

let prop_frame_str_roundtrip =
  QCheck.Test.make ~count:200 ~name:"frame: string codec roundtrips"
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s ->
      let b = Buffer.create 32 in
      Frame.write_str b s;
      let pos = ref 0 in
      Frame.read_str (Buffer.contents b) pos = s && !pos = Buffer.length b)

let frame_request_roundtrip () =
  let instances =
    Batch.parse_instances
      "@easy A(x), R(x,y) | A(1); R(1,2)\n\
       R(x,y), R(y,z) | R(1,2); R(2,3); R(3,3)\n\
       @loops R^x(x,y) | R(1,1); R(-2,-2); R(foo,bar)"
  in
  let req = Frame.Bulk { timeout_ms = Some 250; instances } in
  let payload = Frame.encode_request req in
  (match Frame.decode_request payload with
  | Error e -> Alcotest.failf "decode_request failed: %s" e
  | Ok decoded ->
    Alcotest.(check string) "request re-encodes byte-identically" payload
      (Frame.encode_request decoded);
    let (Frame.Bulk { timeout_ms; instances = dec }) = decoded in
    Alcotest.(check (option int)) "timeout survives" (Some 250) timeout_ms;
    Alcotest.(check int) "instance count" 3 (List.length dec));
  (* no timeout *)
  let bare = Frame.encode_request (Frame.Bulk { timeout_ms = None; instances }) in
  (match Frame.decode_request bare with
  | Ok (Frame.Bulk { timeout_ms = None; _ }) -> ()
  | Ok _ -> Alcotest.fail "phantom timeout"
  | Error e -> Alcotest.failf "decode failed: %s" e);
  (* adversarial input is an Error, never an exception *)
  List.iter
    (fun s ->
      match Frame.decode_request s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted garbage %S" s)
    [ ""; "\x01"; "\x01\xff\xff\xff"; String.sub payload 0 (String.length payload / 2) ]

let frame_reply_roundtrip () =
  let items =
    [
      Frame.Unbreakable;
      Frame.Solved { rho = 2; cached = false };
      Frame.Solved { rho = 41; cached = true };
      Frame.Timeout { lb = 3; ub = None };
      Frame.Timeout { lb = 3; ub = Some 7 };
    ]
  in
  (match Frame.decode_reply (Frame.encode_reply (Frame.Items items)) with
  | Ok (Frame.Items decoded) ->
    Alcotest.(check bool) "items roundtrip" true (decoded = items)
  | Ok (Frame.Error e) -> Alcotest.failf "items decoded as error: %s" e
  | Error e -> Alcotest.failf "decode_reply failed: %s" e);
  (match Frame.decode_reply (Frame.encode_reply (Frame.Error "no shard reachable")) with
  | Ok (Frame.Error msg) -> Alcotest.(check string) "error roundtrip" "no shard reachable" msg
  | Ok _ -> Alcotest.fail "error decoded as items"
  | Error e -> Alcotest.failf "decode_reply failed: %s" e);
  Alcotest.(check string) "item text matches the line protocol" "rho=2"
    (Frame.item_to_string (Frame.Solved { rho = 2; cached = false }))

(* --- admission lanes ------------------------------------------------------ *)

let lanes_classify () =
  let engine = Batch.create () in
  let verdict q = Batch.classify engine (Res_cq.Parser.query q) in
  Alcotest.(check bool) "ptime query -> fast lane" true
    (Lanes.lane_of_verdict (verdict "A(x), R(x,y)") = Lanes.Fast);
  Alcotest.(check bool) "2-chain -> hard lane" true
    (Lanes.lane_of_verdict (verdict "R(x,y), R(y,z)") = Lanes.Hard);
  Alcotest.(check bool) "mixed batch -> hard lane" true
    (Lanes.lane_of_verdicts [ verdict "A(x), R(x,y)"; verdict "R(x,y), R(y,z)" ] = Lanes.Hard);
  Alcotest.(check bool) "all-fast batch -> fast lane" true
    (Lanes.lane_of_verdicts [ verdict "A(x), R(x,y)" ] = Lanes.Fast)

let lanes_shedding () =
  let lanes = Lanes.create ~fast_workers:1 ~fast_capacity:2 ~hard_workers:1 ~hard_capacity:2 in
  let gate = Mutex.create () in
  let ran = Atomic.make 0 in
  Mutex.lock gate;
  (* the worker parks on the gate; everything behind it queues *)
  let job () =
    Mutex.lock gate;
    Mutex.unlock gate;
    Atomic.incr ran
  in
  let admissions = List.init 6 (fun _ -> Lanes.submit lanes Lanes.Hard job) in
  let queued =
    List.length (List.filter (function Lanes.Queued -> true | _ -> false) admissions)
  in
  let shed = List.length admissions - queued in
  Alcotest.(check bool) "bounded queue sheds overload" true (shed > 0);
  (match List.find_opt (function Lanes.Busy _ -> true | _ -> false) admissions with
  | Some (Lanes.Busy { capacity; _ }) -> Alcotest.(check int) "reports capacity" 2 capacity
  | _ -> Alcotest.fail "no Busy admission");
  Alcotest.(check bool) "fast lane unaffected by hard overload" true
    (Lanes.submit lanes Lanes.Fast (fun () -> Atomic.incr ran) = Lanes.Queued);
  Mutex.unlock gate;
  Lanes.shutdown lanes;
  Alcotest.(check int) "every queued job ran" (queued + 1) (Atomic.get ran)

(* --- warm restart through the engine hooks -------------------------------- *)

let temp_dir () =
  let dir = temp_name ".store" in
  Unix.mkdir dir 0o755;
  dir

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let store_warm_restart () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let insts =
    Batch.parse_instances
      "R(x,y), R(y,z) | R(1,2); R(2,3); R(3,3)\nA(x), R(x,y) | A(1); R(1,2)"
  in
  (* first life: solve, which appends to the log *)
  let engine = Batch.create () in
  let store = Store.attach ~dir engine in
  Alcotest.(check int) "fresh store recovers nothing" 0 (Store.recovered store);
  List.iter (fun (i : Batch.instance) -> ignore (Batch.solve engine i.db i.query)) insts;
  Alcotest.(check int) "every solve persisted" 2 (Store.appended store);
  Store.close store;
  (* second life: a fresh engine, warmed from disk *)
  let engine = Batch.create () in
  let store = Store.attach ~dir engine in
  Alcotest.(check int) "recovered across process death" 2 (Store.recovered store);
  Alcotest.(check int) "no torn tail on clean shutdown" 0 (Store.truncated_bytes store);
  let solutions =
    List.map (fun (i : Batch.instance) -> Batch.solve engine i.db i.query) insts
  in
  let _, hits, _ = Batch.solve_cache_stats engine in
  Alcotest.(check int) "restart answers from the recovered cache" 2 hits;
  Alcotest.(check int) "no re-append on cache hits" 0 (Store.appended store);
  (match solutions with
  | [ Solution.Finite (2, _); Solution.Finite (1, _) ] -> ()
  | _ -> Alcotest.fail "recovered solutions have wrong values");
  Store.close store

(* --- the routed fleet ----------------------------------------------------- *)

open Sock

(* A mixed workload: PTIME solves, hard (but tiny) solves, classifies and
   batches, over seeded random graphs so runs are reproducible. *)
let workload st n =
  List.init n (fun i ->
      let facts k =
        String.concat "; "
          (List.init (3 + Random.State.int st 4) (fun _ ->
               Printf.sprintf "R(%d,%d)" (Random.State.int st k) (Random.State.int st k)))
      in
      match i mod 5 with
      | 0 -> Printf.sprintf "solve A(x), R(x,y) | A(1); %s" (facts 4)
      | 1 -> Printf.sprintf "solve R(x,y), R(y,z) | %s" (facts 5)
      | 2 -> "classify R(x,y), R(y,x)"
      | 3 -> Printf.sprintf "batch A(x), R(x,y) | A(2); %s ;; R^x(x,y) | R(1,1)" (facts 4)
      | _ -> Printf.sprintf "solve R(x,y), R(y,x) | %s" (facts 5))

(* Caching is topology-dependent (which shard warmed up when), so strip
   the marker before comparing routed and single-server replies. *)
let drop_substring ~sub s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i <= String.length s - n do
    if String.sub s !i n = sub then i := !i + n
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.add_string b (String.sub s !i (String.length s - !i));
  Buffer.contents b

let normalize reply = drop_substring ~sub:" cached" reply

let shard_config path =
  { (Server.default_config (Net.Unix_socket path)) with workers = 2; hard_workers = 2 }

(* The headline differential: 300 mixed requests through a 3-shard routed
   fleet agree with a single reference server, request by request — and
   keep agreeing after one shard is killed mid-run (failover is sound
   because shards are stateless below their caches). *)
let router_differential () =
  let st = Random.State.make [| 0xf1ee7 |] in
  let shard_paths = List.init 3 (fun _ -> temp_socket_path ()) in
  let shards = List.map (fun p -> Server.start (shard_config p)) shard_paths in
  let reference_path = temp_socket_path () in
  let reference = Server.start (shard_config reference_path) in
  let router_path = temp_socket_path () in
  let router =
    Router.start
      {
        (Router.default_config
           ~address:(Net.Unix_socket router_path)
           ~shards:(List.map (fun p -> Net.Unix_socket p) shard_paths))
        with
        retries = 1;
        backoff_ms = 10;
        health_period_ms = 0;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Router.wait router;
      List.iter Server.stop shards;
      Server.stop reference)
  @@ fun () ->
  let fd_r, r_ic, r_oc = connect router_path in
  let fd_s, s_ic, s_oc = connect reference_path in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd_r with Unix.Unix_error _ -> ());
      try Unix.close fd_s with Unix.Unix_error _ -> ())
  @@ fun () ->
  let lines = workload st 300 in
  let kill_at = 150 in
  (* Kill the shard that owns the 2-chain workload key (ring members are
     the socket paths, which vary per run): this guarantees post-kill
     requests hit the dead shard and the router must fail them over. *)
  let victim =
    let key =
      match Res_cq.Parser.query_opt "R(x,y), R(y,z)" with
      | Ok q -> (Res_engine.Canon.keyed q).Res_engine.Canon.key
      | Error _ -> Alcotest.fail "workload query failed to parse"
    in
    let owner = Option.get (Ring.route (Ring.create ~replicas:128 shard_paths) key) in
    List.nth shards
      (Option.get (List.find_index (fun p -> p = owner) shard_paths))
  in
  List.iteri
    (fun i line ->
      if i = kill_at then begin
        (* a shard dies mid-run; the router must fail its keys over *)
        Server.stop victim;
        Server.wait victim
      end;
      let routed = request r_ic r_oc line in
      let single = request s_ic s_oc line in
      if normalize routed <> normalize single then
        Alcotest.failf "request %d diverged:\n  %s\n  routed: %s\n  single: %s" i line routed
          single)
    lines;
  (* the binary bulk path agrees with the same instances sent as a text
     batch, through the router, after the failover *)
  let bodies =
    [ "A(x), R(x,y) | A(1); R(1,2); R(2,3)"; "R(x,y), R(y,z) | R(1,2); R(2,3); R(3,3)" ]
  in
  let text = request r_ic r_oc ("batch " ^ String.concat " ;; " bodies) in
  let instances =
    Batch.parse_instances (String.concat "\n" bodies)
  in
  Frame.write_frame r_oc (Frame.encode_request (Frame.Bulk { timeout_ms = None; instances }));
  (match Frame.read_frame r_ic with
  | Error e -> Alcotest.failf "bulk frame failed: %s" e
  | Ok payload -> (
    match Frame.decode_reply payload with
    | Ok (Frame.Items items) ->
      let rendered = "ok " ^ String.concat " ;; " (List.map Frame.item_to_string items) in
      Alcotest.(check string) "bulk = text batch" (normalize text) (normalize rendered)
    | Ok (Frame.Error e) -> Alcotest.failf "bulk returned error: %s" e
    | Error e -> Alcotest.failf "bulk reply malformed: %s" e));
  (* watch sessions are pinned: register, mutate, close through the router *)
  let reg = request r_ic r_oc "watch register R(x,y), R(y,x) | R(1,2); R(2,1); R(3,3)" in
  Alcotest.(check bool) "watch registered under a router-global id" true
    (String.length reg >= 11 && String.sub reg 0 11 = "ok watch=1 ");
  let delta = request r_ic r_oc "watch delta 1 -R(3, 3)" in
  Alcotest.(check bool) "pinned delta answered" true
    (String.length delta >= 10 && String.sub delta 0 10 = "ok watch=1");
  Alcotest.(check string) "pinned close" "ok watch=1 closed" (request r_ic r_oc "watch close 1");
  (* the router's own registry saw the failover *)
  let stats = request r_ic r_oc "stats" in
  Alcotest.(check bool) "router counted failovers" true
    (let needle = "route.failovers=" in
     let n = String.length needle in
     let found = ref false in
     for i = 0 to String.length stats - n do
       if String.sub stats i n = needle && stats.[i + n] <> '0' then found := true
     done;
     !found)

let suite =
  [
    Alcotest.test_case "ring: basics" `Quick ring_basics;
    QCheck_alcotest.to_alcotest prop_ring_balance;
    QCheck_alcotest.to_alcotest prop_ring_remap_add;
    QCheck_alcotest.to_alcotest prop_ring_remap_remove;
    Alcotest.test_case "plog: roundtrip, last-wins, compaction" `Quick plog_roundtrip;
    QCheck_alcotest.to_alcotest prop_plog_crash_recovery;
    Alcotest.test_case "plog: CRC catches corruption" `Quick plog_corrupt_record;
    Alcotest.test_case "frame: varint edges" `Quick frame_varint_roundtrip;
    QCheck_alcotest.to_alcotest prop_frame_str_roundtrip;
    Alcotest.test_case "frame: bulk request roundtrip" `Quick frame_request_roundtrip;
    Alcotest.test_case "frame: reply roundtrip" `Quick frame_reply_roundtrip;
    Alcotest.test_case "lanes: classify-first routing" `Quick lanes_classify;
    Alcotest.test_case "lanes: bounded queue sheds" `Quick lanes_shedding;
    Alcotest.test_case "store: warm restart" `Quick store_warm_restart;
    Alcotest.test_case "router: differential vs single server" `Quick router_differential;
  ]
