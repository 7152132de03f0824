type t = {
  mutable instances : int;
  mutable canon_hits : int;
  mutable canon_misses : int;
  mutable classify_hits : int;
  mutable classify_misses : int;
  mutable solve_hits : int;
  mutable solve_misses : int;
  mutable solve_timeouts : int;
  mutable resp_hits : int;
  mutable resp_misses : int;
  mutable canon_time : float;
  mutable digest_time : float;
  mutable classify_time : float;
  mutable solve_time : float;
  mutable resp_time : float;
}

let src = Logs.Src.create "resilience.engine" ~doc:"Batched resilience engine"

let create () =
  {
    instances = 0;
    canon_hits = 0;
    canon_misses = 0;
    classify_hits = 0;
    classify_misses = 0;
    solve_hits = 0;
    solve_misses = 0;
    solve_timeouts = 0;
    resp_hits = 0;
    resp_misses = 0;
    canon_time = 0.;
    digest_time = 0.;
    classify_time = 0.;
    solve_time = 0.;
    resp_time = 0.;
  }

let reset s =
  s.instances <- 0;
  s.canon_hits <- 0;
  s.canon_misses <- 0;
  s.classify_hits <- 0;
  s.classify_misses <- 0;
  s.solve_hits <- 0;
  s.solve_misses <- 0;
  s.solve_timeouts <- 0;
  s.resp_hits <- 0;
  s.resp_misses <- 0;
  s.canon_time <- 0.;
  s.digest_time <- 0.;
  s.classify_time <- 0.;
  s.solve_time <- 0.;
  s.resp_time <- 0.

let rate hits misses =
  let total = hits + misses in
  if total = 0 then 0. else float_of_int hits /. float_of_int total

let canon_hit_rate s = rate s.canon_hits s.canon_misses
let classify_hit_rate s = rate s.classify_hits s.classify_misses
let solve_hit_rate s = rate s.solve_hits s.solve_misses
let resp_hit_rate s = rate s.resp_hits s.resp_misses

let total_time s =
  s.canon_time +. s.digest_time +. s.classify_time +. s.solve_time +. s.resp_time

let pp ppf s =
  Fmt.pf ppf
    "@[<v>engine stats:@,\
    \  instances          %d@,\
    \  query memo         %d hits / %d misses (%.0f%% hit rate)@,\
    \  classify cache     %d hits / %d misses (%.0f%% hit rate)@,\
    \  solution cache     %d hits / %d misses (%.0f%% hit rate)@,\
    \  solve timeouts     %d@,\
    \  time: canon %.4fs, digest %.4fs, classify %.4fs, solve %.4fs@]"
    s.instances s.canon_hits s.canon_misses
    (100. *. canon_hit_rate s)
    s.classify_hits s.classify_misses
    (100. *. classify_hit_rate s)
    s.solve_hits s.solve_misses
    (100. *. solve_hit_rate s)
    s.solve_timeouts
    s.canon_time s.digest_time s.classify_time s.solve_time;
  (* printed only once the responsibility workload has been exercised, so
     resilience-only runs keep their historical report shape *)
  if s.resp_hits + s.resp_misses > 0 then
    Fmt.pf ppf "@\n@[<v>responsibility cache %d hits / %d misses (%.0f%% hit rate)@,\
               time: resp %.4fs@]"
      s.resp_hits s.resp_misses
      (100. *. resp_hit_rate s)
      s.resp_time

let log_summary s =
  Logs.info ~src (fun m ->
      m "engine: %d instances, classify %d/%d hit, solve %d/%d hit, %.4fs total"
        s.instances s.classify_hits
        (s.classify_hits + s.classify_misses)
        s.solve_hits
        (s.solve_hits + s.solve_misses)
        (total_time s))
