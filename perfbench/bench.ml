(* The repository benchmark: three workloads timed and checked from
   outside the library, through its public functions only.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --check-selftest

   The last stdout line is one JSON object:
   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
   With --trace 0 the metrics are the end-to-end figures (run.py adds
   peak_rss_mb, which only the parent process can read); with --trace 1
   they are the per-layer figures. Progress goes to stderr. See
   README.md for the workloads, the statistics and reference figures. *)

module Json = Adc_json.Json
module Obs = Adc_obs
module Sink = Adc_obs.Sink
module Clock = Adc_obs.Clock
module Metrics = Adc_obs.Metrics
module Spec = Adc_pipeline.Spec
module Config = Adc_pipeline.Config
module Optimize = Adc_pipeline.Optimize
module Synthesizer = Adc_synth.Synthesizer
module Constraint_set = Adc_synth.Constraint_set
module Space = Adc_synth.Space
module Ota = Adc_mdac.Ota
module Mdac_stage = Adc_mdac.Mdac_stage
module Dc = Adc_circuit.Dc
module Smallsig = Adc_circuit.Smallsig
module Sparse = Adc_numerics.Sparse
module Rng = Adc_numerics.Rng
module Dpi = Adc_sfg.Dpi
module Analysis = Adc_sfg.Analysis
module Codec = Adc_serve.Codec
module Protocol = Adc_serve.Protocol
module Server = Adc_serve.Server
module Client = Adc_serve.Client
module Store = Adc_serve.Store
module Router = Adc_cluster.Router
module Ring = Adc_cluster.Ring

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* fixed parameters (README "Seeds, budgets and request mix") *)

(* the optimizer seed is pinned so that p_opt_mw is one design answer
   comparable from commit to commit; --seed drives the layer-probe
   sample and the serve mix *)
let optimizer_seed = 11

(* reduced budget of the two hybrid workloads: one attempt per job
   (jobs above 11 input bits still get two more per bit) and a short
   anneal; a default-budget cold k = 13 run takes minutes *)
let hybrid_budget =
  { Synthesizer.sa_iterations = 4; pattern_evals = 4; space_factor = 1.0 }

let hybrid_attempts = 1

(* budget of the serve mix's hybrid requests *)
let tiny_budget =
  { Synthesizer.sa_iterations = 2; pattern_evals = 2; space_factor = 1.0 }

let batch_ks = [ 10; 11; 12; 13 ]
let batch_jobs = 2
let run_dir = ".perfbench_run"
let store_cap = 256
let per_conn = 500 (* requests per connection per round *)
let connections = 2
(* every 5th request of a round is never-seen: an assumed write share,
   not one read from recorded traffic (README "Request mix") *)
let fresh_every = 5

(* ------------------------------------------------------------------ *)
(* measurement *)

let now_s () = Clock.ns_to_s (Clock.now_ns ())

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Gc.stat, not Gc.allocated_bytes: on OCaml 5.1 the latter sees only
   the calling domain *)
let alloc_words (s : Gc.stat) =
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

type sample = {
  wall : float;
  cpu : float;
  alloc_mb : float;
  minor : int;
  major : int;
}

let measure f =
  let g0 = Gc.stat () in
  let c0 = cpu_s () in
  let t0 = now_s () in
  let r = f () in
  let wall = now_s () -. t0 in
  let cpu = cpu_s () -. c0 in
  let g1 = Gc.stat () in
  ( r,
    {
      wall;
      cpu;
      alloc_mb = (alloc_words g1 -. alloc_words g0) *. 8.0 /. 1e6;
      minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

(* whole rounds until the next one would overrun [seconds], at least
   [min_rounds]; runs report the median round *)
let rounds ~seconds ~min_rounds f =
  let t0 = now_s () in
  let rec go n acc =
    let elapsed = now_s () -. t0 in
    let per = if n = 0 then 0.0 else elapsed /. float_of_int n in
    if n >= min_rounds && elapsed +. per > seconds then List.rev acc
    else go (n + 1) (f n :: acc)
  in
  go 0 []

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* nearest-rank quantile *)
let quantile a q =
  let s = sorted a in
  let n = Array.length s in
  s.(Stdlib.min (n - 1)
       (Stdlib.max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median l =
  let s = sorted (Array.of_list l) in
  let n = Array.length s in
  if n mod 2 = 1 then s.(n / 2) else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))

let list_max l = List.fold_left Float.max neg_infinity l

let mean l =
  match l with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* ------------------------------------------------------------------ *)
(* verdicts *)

let problems = ref []

let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        problems := msg :: !problems;
        log "CHECK FAILED: %s" msg
      end)
    fmt

let rel_close ~tol a b =
  Float.abs (a -. b) <= tol *. Float.max (Float.abs a) (Float.abs b)

type metric = string * float * string

let emit ?(extra = []) ~attempted ~failed (metrics : metric list) =
  let metric_obj =
    List.map
      (fun (name, v, unit) ->
        (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
      metrics
  in
  print_endline
    (Json.to_string
       (Json.Obj
          ([
             ("correct", Json.Bool (!problems = []));
             ("attempted", Json.Int attempted);
             ("failed", Json.Int failed);
             ("metrics", Json.Obj metric_obj);
           ]
          @ extra)))

(* ------------------------------------------------------------------ *)
(* output checks of an optimize result, against references made apart
   from the program *)

(* the paper's K = 13 candidate set, written out from the paper *)
let paper_k13 =
  [ "4-4"; "4-3-2"; "4-2-2-2"; "3-3-3"; "3-3-2-2"; "3-2-2-2-2"; "2-2-2-2-2-2" ]

(* the paper's enumeration rule: leading stages of 2..4 raw bits,
   non-increasing down the pipeline, resolving K - 7 effective bits
   before the 7-bit backend *)
let rec rule_configs ~bits ~cap =
  if bits = 0 then [ [] ]
  else
    List.concat_map
      (fun m ->
        if m > cap || m - 1 > bits then []
        else
          List.map (fun rest -> m :: rest)
            (rule_configs ~bits:(bits - (m - 1)) ~cap:m))
      [ 4; 3; 2 ]

let config_string c = String.concat "-" (List.map string_of_int c)

let rule_candidates k =
  List.sort compare (List.map config_string (rule_configs ~bits:(k - 7) ~cap:4))

let sizing_metrics ~backend spec (st : Optimize.stage_result)
    (sol : Synthesizer.solution) =
  let req = Spec.stage_requirements spec st.Optimize.job in
  let metrics, _ =
    Synthesizer.evaluate_sizing ~backend ~kind:Synthesizer.Hybrid
      spec.Spec.process req sol.Synthesizer.sizing
  in
  (req, metrics)

(* [feasible = violation <= 0.02] is the synthesizer's acceptance rule *)
let feasible_of req metrics =
  Constraint_set.total_violation (Synthesizer.constraints_of req)
    ~lookup:(fun n -> List.assoc_opt n metrics)
  <= 0.02

let check_run (r : Optimize.run) =
  let k = r.Optimize.spec.Spec.k in
  let got =
    List.sort compare
      (List.map (fun c -> Config.to_string c.Optimize.config) r.Optimize.candidates)
  in
  check (got = rule_candidates k)
    "k=%d: candidate set [%s] differs from the paper's rule" k
    (String.concat " " got);
  if k = 13 then
    check (got = List.sort compare paper_k13)
      "k=13: candidate set [%s] is not the paper's seven" (String.concat " " got);
  let rec sorted_by_power = function
    | a :: (b :: _ as rest) ->
      a.Optimize.p_total <= b.Optimize.p_total && sorted_by_power rest
    | _ -> true
  in
  check (sorted_by_power r.Optimize.candidates)
    "k=%d: candidates not sorted by p_total" k;
  (match r.Optimize.candidates with
  | first :: _ ->
    check
      (first.Optimize.config = r.Optimize.optimum.Optimize.config
      && first.Optimize.p_total = r.Optimize.optimum.Optimize.p_total)
      "k=%d: optimum is not the head of the ranking" k
  | [] -> check false "k=%d: no candidates" k);
  List.iter
    (fun (c : Optimize.config_result) ->
      let sum =
        List.fold_left (fun acc s -> acc +. s.Optimize.p_stage) 0.0 c.Optimize.stages
      in
      check (rel_close ~tol:1e-12 sum c.Optimize.p_total)
        "k=%d %s: p_total %.17g <> sum of p_stage %.17g" k
        (Config.to_string c.Optimize.config) c.Optimize.p_total sum)
    r.Optimize.candidates;
  (* re-simulate every optimum stage on both linear solvers *)
  List.iter
    (fun (st : Optimize.stage_result) ->
      match st.Optimize.solution with
      | None ->
        log "k=%d stage %d: no synthesized cell (equation fallback), not re-simulated"
          k st.Optimize.index
      | Some sol ->
        List.iter
          (fun (backend, name) ->
            let req, metrics = sizing_metrics ~backend r.Optimize.spec st sol in
            match List.assoc_opt "power" metrics with
            | None -> check false "k=%d stage %d: %s re-simulation failed" k st.Optimize.index name
            | Some p ->
              check (rel_close ~tol:1e-9 p st.Optimize.p_mdac)
                "k=%d stage %d: %s re-simulated power %.17g <> p_mdac %.17g" k
                st.Optimize.index name p st.Optimize.p_mdac;
              check (feasible_of req metrics = sol.Synthesizer.feasible)
                "k=%d stage %d: %s feasibility disagrees with constraints_of" k
                st.Optimize.index name)
          [ (`Sparse, "sparse"); (`Dense, "dense") ])
    r.Optimize.optimum.Optimize.stages

(* ------------------------------------------------------------------ *)
(* spans -> per-layer figures *)

let attr name (e : Sink.event) = List.assoc_opt name e.Sink.attrs
let dur_ms (e : Sink.event) = Int64.to_float e.Sink.dur_ns /. 1e6
let named name events = List.filter (fun (e : Sink.event) -> e.Sink.name = name) events

type span_figures = {
  evals : int;
  distinct_jobs : int;
  warm_jobs : int;
  job_ms_max : float;
  job_ms_sum : float;
  pool_ms_sum : float;
  memo_hits : int;
  memo_misses : int;
}

let span_figures events =
  let jobs = named "optimize.job" events in
  let lookups = named "memo.lookup" events in
  let count p l = List.length (List.filter p l) in
  {
    evals =
      List.fold_left
        (fun acc e -> match attr "evaluations" e with Some (Sink.Int n) -> acc + n | _ -> acc)
        0 jobs;
    distinct_jobs = List.length jobs;
    warm_jobs = count (fun e -> attr "warm" e = Some (Sink.Bool true)) jobs;
    job_ms_max = list_max (0.0 :: List.map dur_ms jobs);
    job_ms_sum = List.fold_left (fun a e -> a +. dur_ms e) 0.0 jobs;
    pool_ms_sum = List.fold_left (fun a e -> a +. dur_ms e) 0.0 (named "pool.task" events);
    memo_hits = count (fun e -> attr "hit" e = Some (Sink.Bool true)) lookups;
    memo_misses = count (fun e -> attr "hit" e = Some (Sink.Bool false)) lookups;
  }

let queue_wait_ms (obs : Obs.t) =
  Metrics.histogram_mean (Metrics.histogram obs.Obs.metrics "pool.queue_latency_ns")
  /. 1e6

(* ------------------------------------------------------------------ *)
(* layer probe: a seeded sample of sizings in each distinct k = 13 job's
   design space, timed through each evaluator layer's public function *)

let sizing_of (z0 : Ota.sizing) space v =
  let g = Space.value_of space v in
  {
    z0 with
    Ota.w_pair = g "w_pair";
    w_mirror = g "w_mirror";
    w_tail = g "w_tail";
    w_cs = g "w_cs";
    w_sink = g "w_sink";
    i_bias = g "i_bias";
    c_comp = g "c_comp";
    r_zero = g "r_zero";
    v_casc = g "v_casc";
    v_cascp = g "v_cascp";
  }

let probe_per_job = 3
let probe_repeats = 3

let time_ms f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Int64.to_float (Clock.elapsed_ns ~since:t0) /. 1e6)

(* min over repeats: the statistic interference cannot lower *)
let best_of n f =
  let r, t = time_ms f in
  let best = ref t in
  for _ = 2 to n do
    let _, t = time_ms f in
    best := Float.min !best t
  done;
  (r, !best)

let layer_probe ~seed =
  let spec = Spec.paper_case ~k:13 in
  let proc = spec.Spec.process in
  let jobs =
    Spec.distinct_jobs spec
      (Config.enumerate_leading ~k:13 ~backend_bits:(Spec.backend_bits spec))
  in
  let rng = Rng.create (Rng.mix seed 0x5eed) in
  let sample =
    List.concat_map
      (fun job ->
        let req = Spec.stage_requirements spec job in
        let z0 = Synthesizer.initial_sizing proc req in
        let space, _ = Synthesizer.design_space proc z0 ~factor:1.0 in
        List.init probe_per_job (fun _ ->
            (req, sizing_of z0 space (Space.denormalize space (Space.random_point rng space)))))
      jobs
  in
  let eval_ms = ref [] and alloc = ref [] and unsim = ref 0 in
  let refacts = ref [] and analyses = ref [] and drift = ref [] in
  let servo_ms = ref [] and solves = ref [] and dc_ms = ref [] and iters = ref [] in
  let dpi_ms = ref [] and char_ms = ref [] in
  let push r v = r := v :: !r in
  List.iter
    (fun ((req : Mdac_stage.requirements), z) ->
      let load_cap = req.Mdac_stage.c_load_eff in
      let s0 = Sparse.totals () in
      let g0 = Gc.stat () in
      let metrics, _ =
        Synthesizer.evaluate_sizing ~kind:Synthesizer.Hybrid proc req z
      in
      let g1 = Gc.stat () in
      let s1 = Sparse.totals () in
      if metrics = [] then incr unsim
      else begin
        let _, t_eval =
          best_of probe_repeats (fun () ->
              Synthesizer.evaluate_sizing ~kind:Synthesizer.Hybrid proc req z)
        in
        push eval_ms t_eval;
        push alloc ((alloc_words g1 -. alloc_words g0) *. 8.0 /. 1e6);
        push refacts
          (float_of_int (s1.Sparse.total_refactorizations - s0.Sparse.total_refactorizations));
        push analyses
          (float_of_int (s1.Sparse.total_analyses - s0.Sparse.total_analyses));
        push drift
          (float_of_int (s1.Sparse.total_pivot_drift - s0.Sparse.total_pivot_drift));
        let v0 = Sparse.totals () in
        let servo = Ota.biased_operating_point ~load_cap proc z in
        let v1 = Sparse.totals () in
        match servo with
        | Error _ -> ()
        | Ok ((ports : Ota.ports), op) -> (
          push solves (float_of_int (v1.Sparse.total_solves - v0.Sparse.total_solves));
          let _, t_servo =
            best_of probe_repeats (fun () -> Ota.biased_operating_point ~load_cap proc z)
          in
          push servo_ms t_servo;
          let dc, t_dc = best_of probe_repeats (fun () -> Dc.solve ports.Ota.nl) in
          push dc_ms t_dc;
          (match dc with
          | Ok r -> push iters (float_of_int r.Dc.iterations)
          | Error _ -> ());
          let transfer () =
            let ss = Smallsig.extract ports.Ota.nl op in
            Dpi.numeric_transfer_to (Dpi.build ports.Ota.nl ss) ports.Ota.out
          in
          match best_of probe_repeats transfer with
          | exception Dpi.Unsupported _ -> ()
          | h, t_dpi ->
            push dpi_ms t_dpi;
            let _, t_char = best_of probe_repeats (fun () -> Analysis.characterize h) in
            push char_ms t_char)
      end)
    sample;
  let m l = mean !l in
  let coverage = (m servo_ms +. m dpi_ms +. m char_ms) /. m eval_ms in
  log "layer probe: %d sizings, %d unsimulatable; eval %.3f ms = servo %.3f + dpi %.3f + char %.3f (%.0f%%)"
    (List.length sample) !unsim (m eval_ms) (m servo_ms) (m dpi_ms) (m char_ms)
    (100.0 *. coverage);
  [
    ("synth.eval_ms", m eval_ms, "ms");
    ("synth.eval_alloc_mb", m alloc, "MB");
    ("synth.eval_unsimulatable", float_of_int !unsim, "count");
    ("ota.servo_ms", m servo_ms, "ms");
    ("ota.servo_lin_solves", m solves, "count");
    ("dc.solve_ms", m dc_ms, "ms");
    ("dc.newton_iters", m iters, "count");
    ("mna.refactorizations_per_eval", m refacts, "count");
    ("mna.analyses_per_eval", m analyses, "count");
    ("mna.pivot_drift_per_eval", m drift, "count");
    ("sfg.dpi_transfer_ms", m dpi_ms, "ms");
    ("sfg.characterize_ms", m char_ms, "ms");
    ("eval.layer_coverage", coverage, "ratio");
  ]

(* ------------------------------------------------------------------ *)
(* the hybrid workloads *)

type hybrid_result = {
  payload : string;  (* canonical bytes, for rep-to-rep identity *)
  runs : Optimize.run list;
  occurrences : int;
  distinct : int;
}

let cold_specs = [ Spec.paper_case ~k:13 ]
let batch_specs = List.map (fun k -> Spec.paper_case ~k) batch_ks

let cold_call ?obs () =
  let r =
    Optimize.run ~mode:`Hybrid ~seed:optimizer_seed ~attempts:hybrid_attempts
      ~budget:hybrid_budget ~jobs:1 ?obs (List.hd cold_specs)
  in
  let n = List.length r.Optimize.distinct_jobs in
  { payload = Json.to_string (Codec.optimize_payload r); runs = [ r ];
    occurrences = n; distinct = n }

let batch_call ?obs () =
  let b =
    Optimize.run_batch ~mode:`Hybrid ~seed:optimizer_seed ~attempts:hybrid_attempts
      ~budget:hybrid_budget ~jobs:batch_jobs ?obs batch_specs
  in
  { payload = Json.to_string (Codec.batch_payload b); runs = b.Optimize.batch_runs;
    occurrences = b.Optimize.job_occurrences; distinct = b.Optimize.distinct_syntheses }

(* the warm-up counted in setup_s: one evaluator call on the analytic
   first cut of every distinct job. It runs once, first thing in the
   process, so it pays the process-wide symbolic-factorization cache
   fill for each amplifier topology; run.py takes the median over its
   processes *)
let warm_up specs () =
  List.iter
    (fun spec ->
      let jobs =
        Spec.distinct_jobs spec
          (Config.enumerate_leading ~k:spec.Spec.k ~backend_bits:(Spec.backend_bits spec))
      in
      List.iter
        (fun job ->
          let req = Spec.stage_requirements spec job in
          let z = Synthesizer.initial_sizing spec.Spec.process req in
          ignore (Synthesizer.evaluate_sizing ~kind:Synthesizer.Hybrid spec.Spec.process req z))
        jobs)
    specs

let p13_mw runs =
  match List.find_opt (fun r -> r.Optimize.spec.Spec.k = 13) runs with
  | Some r -> r.Optimize.optimum.Optimize.p_total *. 1e3
  | None -> nan

let setup_wall f =
  let r, s = measure f in
  log "setup: %.3f s" s.wall;
  (r, s)

(* ------------------------------------------------------------------ *)
(* the routed serve mix *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

type fleet = {
  backends : (string * Server.t * Thread.t * Obs.t) list;
  router : Router.t;
  router_thread : Thread.t;
  front : string;
}

(* each backend store starts at its cap, so every write of the mix runs
   the full LRU sweep from the first round on: the rounds measure one
   steady state instead of a store filling up *)
let prefill_store dir =
  let store = Store.open_dir dir in
  let payload =
    Json.to_string
      (Codec.optimize_payload (Optimize.run ~mode:`Equation (Spec.paper_case ~k:13)))
  in
  for i = 1 to store_cap do
    Store.add store ~key:(Printf.sprintf "prefill|%d" i) ~payload
  done

(* fixed relative socket paths and node ids: the ring hashes the
   socket path, so placement repeats from run to run and checkout to
   checkout *)
let start_fleet ~traced =
  rm_rf run_dir;
  Unix.mkdir run_dir 0o755;
  let backends =
    List.init 2 (fun i ->
        let name = Printf.sprintf "b%d" i in
        let sock = Filename.concat run_dir (name ^ ".sock") in
        let obs = if traced then Obs.in_memory () else Obs.null in
        let store_dir = Filename.concat run_dir ("store-" ^ name) in
        prefill_store store_dir;
        let srv =
          Server.create
            {
              Server.default_config with
              Server.socket_path = Some sock;
              workers = 2;
              jobs = 1;
              store_dir = Some store_dir;
              store_max_entries = Some store_cap;
              node_id = Some name;
              obs;
            }
        in
        (sock, srv, Thread.create Server.run srv, obs))
  in
  let front = Filename.concat run_dir "front.sock" in
  let router =
    Router.create
      {
        Router.default_config with
        Router.backends = List.map (fun (s, _, _, _) -> s) backends;
        socket_path = Some front;
        replicas = 2;
        probe_period_s = 0.0;
        node_id = Some "router";
        obs = (if traced then Obs.in_memory () else Obs.null);
      }
  in
  { backends; router; router_thread = Thread.create Router.run router; front }

let stop_fleet f =
  Router.stop f.router;
  Thread.join f.router_thread;
  List.iter (fun (_, srv, th, _) -> Server.stop srv; Thread.join th) f.backends;
  rm_rf run_dir

let budget_json (b : Synthesizer.budget) =
  Json.Obj
    [
      ("sa_iterations", Json.Int b.Synthesizer.sa_iterations);
      ("pattern_evals", Json.Int b.Synthesizer.pattern_evals);
      ("space_factor", Json.Float b.Synthesizer.space_factor);
    ]

let hybrid_ks = [ 10; 11 ]
let pareto_ks = [ 12; 13 ]
let int_list l = Json.List (List.map (fun k -> Json.Int k) l)

(* the warm templates: tiny-budget hybrid optimize and batch, equation
   pareto and the equation 13-bit optimum; each with a fixed id so its
   warm reply bytes are fixed *)
let warm_templates =
  let hybrid extra =
    [ ("mode", Json.String "hybrid"); ("attempts", Json.Int 1);
      ("budget", budget_json tiny_budget) ] @ extra
  in
  let reqs =
    List.map (fun k -> ("optimize", hybrid [ ("k", Json.Int k) ])) hybrid_ks
    @ [
        ("batch", hybrid [ ("ks", int_list hybrid_ks) ]);
        ( "pareto",
          [ ("mode", Json.String "equation"); ("ks", int_list pareto_ks);
            ("fs_list", Json.List [ Json.Float 40.0 ]) ] );
        ("optimize", [ ("mode", Json.String "equation"); ("k", Json.Int 13) ]);
      ]
  in
  Array.of_list
    (List.mapi
       (fun i (verb, fields) ->
         Json.Obj ((("id", Json.Int i) :: ("verb", Json.String verb) :: fields)))
       reqs)

(* the template whose reply carries the served 13-bit optimum, and the
   hybrid batch template *)
let p13_template = Array.length warm_templates - 1
let batch_template = List.length hybrid_ks

let fresh_request ~id ~seed ~k =
  Json.Obj
    [ ("id", Json.Int id); ("verb", Json.String "optimize"); ("k", Json.Int k);
      ("mode", Json.String "equation"); ("seed", Json.Int seed) ]

let is_final line = Protocol.response_is_final (Json.parse line)

(* read every line of one response *)
let read_response conn =
  let rec go acc =
    let line = Client.recv_line conn in
    if is_final line then List.rev (line :: acc) else go (line :: acc)
  in
  go []

let call conn req =
  Client.send conn req;
  read_response conn

let is_error line = Json.member "ok" (Json.parse line) = Some (Json.Bool false)

(* the payload-level view of a response: stream tag and canonical
   result bytes of each line *)
let results lines =
  List.map
    (fun l ->
      let j = Json.parse l in
      ( Option.map Json.to_string (Json.member "stream" j),
        Option.map Json.to_string (Json.member "result" j) ))
    lines

type mix = {
  fleet : fleet;
  expected : string list array;  (* warm reply lines per template *)
  expected_eq : string array;  (* equation payload bytes per k - 10 *)
  plans : int array array;
      (* one per connection: template index per request, -1 = fresh *)
  fresh_base : int;
  fresh_counter : int Atomic.t;
  p13_mw : float;
}

(* start a fleet, send every template cold then warm, check that the
   warm reply carries the cold reply's bytes *)
let setup_mix ~traced ~seed =
  let fleet = start_fleet ~traced in
  let conn = Client.connect_unix ~timeout_ms:5000 fleet.front in
  let expected =
    Array.map
      (fun req ->
        let cold = call conn req in
        let warm = call conn req in
        check (not (List.exists is_error cold)) "cold reply is an error: %s"
          (String.concat " " cold);
        check (results warm = results cold) "warm reply differs from cold for %s"
          (Json.to_string req);
        warm)
      warm_templates
  in
  Client.close conn;
  let expected_eq =
    Array.of_list
      (List.map
         (fun k ->
           Json.to_string
             (Codec.optimize_payload
                (Optimize.run ~mode:`Equation (Spec.paper_case ~k))))
         batch_ks)
  in
  let p13 =
    match Json.member_path "result.p_total" (Json.parse (List.hd expected.(p13_template))) with
    | Some (Json.Float p) -> p *. 1e3
    | _ -> nan
  in
  let rng = Rng.create (Rng.mix seed 0x5e7e) in
  let plans =
    Array.init connections (fun _ ->
        let plan =
          Array.init per_conn (fun i ->
              if i mod fresh_every = fresh_every - 1 then -1
              else (i - (i / fresh_every)) mod Array.length warm_templates)
        in
        Rng.shuffle_in_place rng plan;
        plan)
  in
  {
    fleet; expected; expected_eq; plans;
    fresh_base = 1_000_000 * (1 + (seed land 0xffff));
    fresh_counter = Atomic.make 0;
    p13_mw = p13;
  }

(* the store key a backend files a request under: the key the router
   places it by *)
let request_key req =
  match Protocol.parse_request req with
  | Error _ -> ""
  | Ok r -> (
    let open Protocol in
    let budget = r.budget in
    match r.verb with
    | Batch ->
      Codec.key_batch ?budget ~ks:r.ks ~fs_mhz:r.fs_mhz ~mode:r.mode ~seed:r.seed
        ~attempts:r.attempts ()
    | Pareto ->
      Codec.key_pareto ?budget ~ks:r.ks ~fs_list:r.fs_list ~mode:r.mode ~seed:r.seed
        ~attempts:r.attempts ()
    | _ ->
      Codec.key_optimize ?budget ~k:r.k ~fs_mhz:r.fs_mhz ~mode:r.mode ~seed:r.seed
        ~attempts:r.attempts ())

(* one connection's share of a round: latencies and failed count.
   [conn_for] picks the connection a request goes to; [checked = false]
   skips the reply checks (a pass that fills a store) *)
let run_plan ?(checked = true) mix plan conn_for =
  let lat = Array.make (Array.length plan) 0.0 in
  let failed = ref 0 in
  Array.iteri
    (fun i tpl ->
      let fresh_k = ref 0 in
      let req =
        if tpl >= 0 then warm_templates.(tpl)
        else begin
          let n = Atomic.fetch_and_add mix.fresh_counter 1 in
          fresh_k := List.nth batch_ks (n mod List.length batch_ks);
          fresh_request ~id:(100 + i) ~seed:(mix.fresh_base + n) ~k:!fresh_k
        end
      in
      let conn = conn_for req in
      let t0 = now_s () in
      let lines = call conn req in
      lat.(i) <- (now_s () -. t0) *. 1e3;
      if List.exists is_error lines then incr failed
      else if checked then
        if tpl >= 0 then
          check (lines = mix.expected.(tpl))
            "warm reply of template %d is not byte-identical to the first warm reply" tpl
        else
          let got =
            Option.map Json.to_string (Json.member "result" (Json.parse (List.hd lines)))
          in
          check (got = Some mix.expected_eq.(!fresh_k - 10))
            "equation reply for k=%d differs from Codec.optimize_payload" !fresh_k)
    plan;
  (lat, !failed)

type round = { sample : sample; lat : float array; round_failed : int }

let mix_round mix conns =
  let results = Array.make (Array.length conns) ([||], 0) in
  let (), sample =
    measure (fun () ->
        let threads =
          Array.mapi
            (fun i conn ->
              Thread.create
                (fun () -> results.(i) <- run_plan mix mix.plans.(i) (fun _ -> conn))
                ())
            conns
        in
        Array.iter Thread.join threads)
  in
  {
    sample;
    lat = Array.concat (Array.to_list (Array.map fst results));
    round_failed = Array.fold_left (fun a (_, f) -> a + f) 0 results;
  }

let connect_all sock =
  Array.init connections (fun _ -> Client.connect_unix ~timeout_ms:5000 sock)

let round_metrics rs =
  let n = float_of_int (Array.length (List.hd rs).lat) in
  ( median (List.map (fun r -> r.sample.wall) rs),
    median (List.map (fun r -> n /. r.sample.wall) rs),
    median (List.map (fun r -> quantile r.lat 0.50) rs),
    median (List.map (fun r -> quantile r.lat 0.99) rs) )

let store_counter srv name =
  match Json.member_path ("store." ^ name) (Server.stats_json srv) with
  | Some (Json.Int n) -> n
  | _ -> 0

(* store and codec timed directly on the mix's own payloads *)
let store_json_probe mix =
  let payloads =
    List.map
      (fun lines ->
        match Json.member "result" (Json.parse (List.nth lines (List.length lines - 1))) with
        | Some r -> Json.to_string r
        | None -> "{}")
      (Array.to_list mix.expected)
  in
  let dir = Filename.concat run_dir "probe-store" in
  let store = Store.open_dir ~max_entries:store_cap dir in
  let big = List.nth payloads 4 in
  for i = 0 to store_cap - 1 do
    Store.add store ~key:(Printf.sprintf "probe|fill|%d" i) ~payload:big
  done;
  let n = 200 in
  let _, t_find =
    best_of 3 (fun () ->
        for i = 0 to n - 1 do
          ignore (Store.find store ~key:(Printf.sprintf "probe|fill|%d" (i mod store_cap)))
        done)
  in
  let counter = ref 0 in
  let _, t_add =
    best_of 3 (fun () ->
        for _ = 1 to n do
          incr counter;
          Store.add store ~key:(Printf.sprintf "probe|new|%d" !counter) ~payload:big
        done)
  in
  let per_payload f =
    let _, t = best_of 3 (fun () -> for _ = 1 to 20 do List.iter f payloads done) in
    t /. float_of_int (20 * List.length payloads)
  in
  let parsed = List.map Json.parse payloads in
  let t_parse = per_payload (fun p -> ignore (Json.parse p)) in
  let t_print =
    let _, t =
      best_of 3 (fun () -> for _ = 1 to 20 do List.iter (fun j -> ignore (Json.to_string j)) parsed done)
    in
    t /. float_of_int (20 * List.length parsed)
  in
  rm_rf dir;
  [
    ("store.find_ms", t_find /. float_of_int n, "ms");
    ("store.add_ms", t_add /. float_of_int n, "ms");
    ("json.parse_ms", t_parse, "ms");
    ("json.print_ms", t_print, "ms");
  ]

(* per-layer figures of the serve path: the traced fleet's spans over
   [traced_rounds] rounds, the routed-minus-direct p50, the store/codec
   probe *)
let traced_rounds = 3

let serve_layers mix =
  let sinks = List.map (fun (_, _, _, (o : Obs.t)) -> o.Obs.sink) mix.fleet.backends in
  List.iter (fun s -> ignore (Sink.drain s)) sinks;
  let srvs = List.map (fun (_, s, _, _) -> s) mix.fleet.backends in
  let hits0 = List.map (fun s -> store_counter s "hits") srvs in
  let writes0 = List.map (fun s -> store_counter s "writes") srvs in
  let offers0 = Router.replica_offers mix.fleet.router in
  let rhits0 = Router.replica_hits mix.fleet.router in
  let reroutes0 = Router.reroutes mix.fleet.router in
  let conns = connect_all mix.fleet.front in
  let traced = List.init traced_rounds (fun _ -> mix_round mix conns) in
  Array.iter Client.close conns;
  let delta l0 name = List.fold_left2 (fun a s v0 -> a + store_counter s name - v0) 0 srvs l0 in
  let per_round n = float_of_int n /. float_of_int traced_rounds in
  let hits = delta hits0 "hits" and writes = delta writes0 "writes" in
  let events = List.concat_map Sink.drain sinks in
  let mean_ms name = mean (List.map dur_ms (named name events)) in
  let offers = Router.replica_offers mix.fleet.router - offers0 in
  let rhits = Router.replica_hits mix.fleet.router - rhits0 in
  let reroutes = Router.reroutes mix.fleet.router - reroutes0 in
  (* the router hop: the same plan on one connection, through the router
     and then straight to each request's ring owner (one unchecked pass
     fills the owners' stores with the whole-request keys the router
     itself never stores) *)
  let ring =
    Ring.create ~vnodes:Router.default_config.Router.vnodes
      (List.map (fun (s, _, _, _) -> s) mix.fleet.backends)
  in
  let failed = ref (List.fold_left (fun a r -> a + r.round_failed) 0 traced) in
  let pass ?checked conn_for =
    let lat, f = run_plan ?checked mix mix.plans.(0) conn_for in
    failed := !failed + f;
    lat
  in
  let front = Client.connect_unix ~timeout_ms:5000 mix.fleet.front in
  let routed_lat = List.init traced_rounds (fun _ -> pass (fun _ -> front)) in
  Client.close front;
  let direct_conns =
    List.map (fun (s, _, _, _) -> (s, Client.connect_unix ~timeout_ms:5000 s)) mix.fleet.backends
  in
  let owner req = List.assoc (Option.get (Ring.lookup ring (request_key req))) direct_conns in
  ignore (pass ~checked:false owner);
  let direct_lat = List.init traced_rounds (fun _ -> pass owner) in
  List.iter (fun (_, c) -> Client.close c) direct_conns;
  let p50 l = median (List.map (fun a -> quantile a 0.5) l) in
  let p50_routed = p50 routed_lat and p50_direct = p50 direct_lat in
  log "serve layers: routed p50 %.3f ms, direct p50 %.3f ms" p50_routed p50_direct;
  let attempted = connections * per_conn * traced_rounds + per_conn * ((2 * traced_rounds) + 1) in
  ( attempted, !failed, [
    ("serve.queue_ms", mean_ms "serve.queue", "ms");
    ("serve.request_ms", mean_ms "serve.request", "ms");
    ("serve.store_hits", per_round hits, "count");
    ("serve.store_writes", per_round writes, "count");
    ("route.hop_ms", p50_routed -. p50_direct, "ms");
    ("route.replica_offers", per_round offers, "count");
    ("route.replica_hits", per_round rhits, "count");
    ("route.reroutes", per_round reroutes, "count");
  ]
  @ store_json_probe mix )

(* ------------------------------------------------------------------ *)
(* workloads *)

let hybrid_workload ~name ~call ~specs ~slots ~seed ~seconds ~trace =
  let (), setup = setup_wall (warm_up specs) in
  let failed = ref 0 in
  let rep ?obs () =
    match measure (fun () -> call ?obs ()) with
    | r, s ->
      log "%s rep: %.3f s wall, %.3f s cpu, %.1f MB" name s.wall s.cpu s.alloc_mb;
      Some (r, s)
    | exception e ->
      log "%s rep raised %s" name (Printexc.to_string e);
      incr failed;
      None
  in
  if not trace then begin
    let reps = List.filter_map Fun.id (rounds ~seconds ~min_rounds:1 (fun _ -> rep ())) in
    let attempted = List.length reps + !failed in
    (match reps with
    | (first, _) :: rest ->
      List.iter
        (fun (r, _) -> check (r.payload = first.payload) "%s: repetitions differ" name)
        rest;
      List.iter check_run first.runs
    | [] -> check false "%s: no repetition finished" name);
    let samples = List.map snd reps in
    let wall = median (List.map (fun s -> s.wall) samples) in
    let p_opt, digest =
      match reps with
      | (r, _) :: _ -> (p13_mw r.runs, Digest.to_hex (Digest.string r.payload))
      | [] -> (nan, "")
    in
    (* one optimize call is this workload's request: the format asks for
       every end-to-end metric on every workload, so req_* restate the
       median call (README "End to end") *)
    emit ~extra:[ ("digest", Json.String digest) ] ~attempted ~failed:!failed
      [
        ("setup_s", setup.wall, "s");
        ("wall_s", wall, "s");
        ("cpu_s", median (List.map (fun s -> s.cpu) samples), "s");
        ("alloc_mb", median (List.map (fun s -> s.alloc_mb) samples), "MB");
        ("p_opt_mw", p_opt, "mW");
        ("req_per_s", 1.0 /. wall, "1/s");
        ("req_p50_ms", wall *. 1e3, "ms");
        ("req_p99_ms", wall *. 1e3, "ms");
      ]
  end
  else begin
    (* untraced, traced, traced, untraced (one in-memory context per
       traced repetition): the order cancels a steady drift, and the
       difference of the means is the tracing overhead, read within one
       process; the per-layer figures come from the faster traced one *)
    let traced_rep () =
      let obs = Obs.in_memory () in
      Option.map (fun (r, s) -> (r, s, obs)) (rep ~obs ())
    in
    let u1 = rep () in
    let t1 = traced_rep () in
    let t2 = traced_rep () in
    let u2 = rep () in
    let untraced = List.filter_map Fun.id [ u1; u2 ] in
    let traced = List.filter_map Fun.id [ t1; t2 ] in
    let attempted = List.length traced + List.length untraced + !failed in
    let r, s, obs =
      List.fold_left
        (fun ((_, b, _) as best) ((_, s, _) as x) -> if s.wall < b.wall then x else best)
        (List.hd traced) traced
    in
    let mean_wall l = mean (List.map (fun s -> s.wall) l) in
    let t_mean = mean_wall (List.map (fun (_, s, _) -> s) traced) in
    let u_mean = mean_wall (List.map snd untraced) in
    log "%s tracing overhead: traced %.3f s, untraced %.3f s (mean of 2 each), %+.1f %%"
      name t_mean u_mean (100.0 *. (t_mean -. u_mean) /. u_mean);
    let f = span_figures (Sink.events obs.Obs.sink) in
    let wall_ms = s.wall *. 1e3 in
    let probe = layer_probe ~seed in
    let mix = setup_mix ~traced:true ~seed in
    let serve_attempted, serve_failed, serve =
      Fun.protect ~finally:(fun () -> stop_fleet mix.fleet) (fun () -> serve_layers mix)
    in
    emit ~attempted:(attempted + serve_attempted) ~failed:(!failed + serve_failed)
      ([
         ("optimize.evals", float_of_int f.evals, "count");
         ("optimize.distinct_jobs", float_of_int f.distinct_jobs, "count");
         ("optimize.warm_jobs", float_of_int f.warm_jobs, "count");
         ("optimize.job_occurrences", float_of_int r.occurrences, "count");
         ("optimize.distinct_syntheses", float_of_int r.distinct, "count");
         ("optimize.job_ms_max", f.job_ms_max, "ms");
         ("exec.pool_busy_frac", f.pool_ms_sum /. (float_of_int slots *. wall_ms), "ratio");
         ("exec.queue_wait_ms", queue_wait_ms obs, "ms");
         ("exec.speedup", f.job_ms_sum /. wall_ms, "ratio");
         ("exec.memo_hits", float_of_int f.memo_hits, "count");
         ("exec.memo_misses", float_of_int f.memo_misses, "count");
         ("gc.minor_collections", float_of_int s.minor, "count");
         ("gc.major_collections", float_of_int s.major, "count");
       ]
      @ probe @ serve)
  end

let serve_workload ~seed ~seconds ~trace =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* one set-up per process, the first thing it does, so it pays the
     cold synthesis and the cache fills; run.py takes the median over
     its processes *)
  let mix, setup_sample = setup_wall (fun () -> setup_mix ~traced:trace ~seed) in
  Fun.protect ~finally:(fun () -> stop_fleet mix.fleet) @@ fun () ->
  if not trace then begin
    let conns = connect_all mix.fleet.front in
    let rs =
      rounds ~seconds ~min_rounds:1 (fun _ ->
          let r = mix_round mix conns in
          log "round: %.3f s wall, %.3f s cpu, p50 %.3f ms, p99 %.3f ms" r.sample.wall
            r.sample.cpu (quantile r.lat 0.5) (quantile r.lat 0.99);
          r)
    in
    Array.iter Client.close conns;
    let attempted = List.fold_left (fun a r -> a + Array.length r.lat) 0 rs in
    let failed = List.fold_left (fun a r -> a + r.round_failed) 0 rs in
    let wall, rps, p50, p99 = round_metrics rs in
    for t = -1 to Array.length warm_templates - 1 do
      let l =
        List.concat_map
          (fun r ->
            List.filteri
              (fun i _ -> mix.plans.(i / per_conn).(i mod per_conn) = t)
              (Array.to_list r.lat))
          rs
      in
      log "template %d: p50 %.3f ms" t (median l)
    done;
    log "serve: %d rounds, %d requests; median round %.3f s, p50 %.3f ms, p99 %.3f ms"
      (List.length rs) attempted wall p50 p99;
    emit ~attempted ~failed
      [
        ("setup_s", setup_sample.wall, "s");
        ("wall_s", wall, "s");
        ("cpu_s", median (List.map (fun r -> r.sample.cpu) rs), "s");
        ("alloc_mb", median (List.map (fun r -> r.sample.alloc_mb) rs), "MB");
        ("p_opt_mw", mix.p13_mw, "mW");
        ("req_per_s", rps, "1/s");
        ("req_p50_ms", p50, "ms");
        ("req_p99_ms", p99, "ms");
      ]
  end
  else begin
    (* the synthesis layers of this workload ran in set-up: the
       measured fleet's cold pass *)
    let events =
      List.concat_map (fun (_, _, _, (o : Obs.t)) -> Sink.events o.Obs.sink) mix.fleet.backends
    in
    let f = span_figures events in
    (* the fusion counts of the served hybrid batch, as its reply
       reports them *)
    let batch_count name =
      List.fold_left
        (fun acc line ->
          match Json.member_path ("result." ^ name) (Json.parse line) with
          | Some (Json.Int n) -> acc + n
          | _ -> acc)
        0 mix.expected.(batch_template)
    in
    let setup_ms = setup_sample.wall *. 1e3 in
    let queue_wait =
      mean (List.map (fun (_, _, _, o) -> queue_wait_ms o) mix.fleet.backends)
    in
    let attempted, failed, serve = serve_layers mix in
    let probe = layer_probe ~seed in
    emit ~attempted ~failed
      ([
         ("optimize.evals", float_of_int f.evals, "count");
         ("optimize.distinct_jobs", float_of_int f.distinct_jobs, "count");
         ("optimize.warm_jobs", float_of_int f.warm_jobs, "count");
         ("optimize.job_occurrences", float_of_int (batch_count "job_occurrences"), "count");
         ("optimize.distinct_syntheses", float_of_int (batch_count "distinct_syntheses"), "count");
         ("optimize.job_ms_max", f.job_ms_max, "ms");
         ( "exec.pool_busy_frac",
           f.pool_ms_sum /. (float_of_int (List.length mix.fleet.backends) *. setup_ms),
           "ratio" );
         ("exec.queue_wait_ms", queue_wait, "ms");
         ("exec.speedup", f.job_ms_sum /. setup_ms, "ratio");
         ("exec.memo_hits", float_of_int f.memo_hits, "count");
         ("exec.memo_misses", float_of_int f.memo_misses, "count");
         ("gc.minor_collections", float_of_int setup_sample.minor, "count");
         ("gc.major_collections", float_of_int setup_sample.major, "count");
       ]
      @ probe @ serve)
  end

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* --check-selftest: every output check must reject a perturbed result *)

let check_selftest () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let missed = ref 0 in
  let expect_caught name f =
    let saved = !problems in
    problems := [];
    f ();
    let caught = !problems <> [] in
    problems := saved;
    if not caught then incr missed;
    Printf.printf "%-50s %s\n%!" name (if caught then "caught" else "MISSED")
  in
  let spec = Spec.paper_case ~k:13 in
  let r =
    Optimize.run ~mode:`Hybrid ~seed:optimizer_seed ~attempts:1 ~budget:tiny_budget
      ~jobs:1 spec
  in
  check_run r;
  if !problems <> [] then begin
    print_endline "the unperturbed run fails its checks";
    exit 1
  end;
  let cands = r.Optimize.candidates in
  let c0 = List.nth cands 0 and c1 = List.nth cands 1 in
  let rest = List.tl (List.tl cands) in
  let opt = r.Optimize.optimum in
  let with_stage f =
    let st = List.hd opt.Optimize.stages in
    let opt' = { opt with Optimize.stages = f st :: List.tl opt.Optimize.stages } in
    { r with Optimize.optimum = opt'; candidates = opt' :: List.tl cands }
  in
  expect_caught "swapped ranking" (fun () ->
      check_run { r with Optimize.candidates = c1 :: c0 :: rest; optimum = c1 });
  expect_caught "optimum not the head of the ranking" (fun () ->
      check_run { r with Optimize.optimum = c1 });
  expect_caught "p_total not the sum of p_stage" (fun () ->
      let c0' = { c0 with Optimize.p_total = c0.Optimize.p_total *. (1.0 +. 1e-9) } in
      check_run { r with Optimize.candidates = c0' :: List.tl cands; optimum = c0' });
  expect_caught "candidate dropped" (fun () ->
      check_run { r with Optimize.candidates = List.rev (List.tl (List.rev cands)) });
  expect_caught "foreign candidate added" (fun () ->
      check_run { r with Optimize.candidates = cands @ [ { c1 with Optimize.config = [ 5; 2 ] } ] });
  expect_caught "k = 10 run carrying the k = 13 set" (fun () ->
      check_run { r with Optimize.spec = Spec.paper_case ~k:10 });
  expect_caught "scaled p_mdac (1 + 1e-6)" (fun () ->
      check_run
        (with_stage (fun st -> { st with Optimize.p_mdac = st.Optimize.p_mdac *. (1.0 +. 1e-6) })));
  expect_caught "flipped feasibility" (fun () ->
      check_run
        (with_stage (fun st ->
             match st.Optimize.solution with
             | Some sol ->
               { st with
                 Optimize.solution =
                   Some { sol with Synthesizer.feasible = not sol.Synthesizer.feasible } }
             | None -> st)));
  expect_caught "repetitions differ" (fun () ->
      let payload run = Json.to_string (Codec.optimize_payload run) in
      let r' = { r with Optimize.optimum = { opt with Optimize.p_total = opt.Optimize.p_total *. 2.0 } } in
      check (payload r = payload r') "repetitions differ");
  (* the serve checks, on a live fleet with tampered references *)
  let mix = setup_mix ~traced:false ~seed:1 in
  Fun.protect ~finally:(fun () -> stop_fleet mix.fleet) (fun () ->
      let conns = connect_all mix.fleet.front in
      let tamper_line l = String.map (fun c -> if c = '2' then '3' else c) l in
      let expected = Array.copy mix.expected in
      expect_caught "warm reply bytes differ" (fun () ->
          mix.expected.(0) <- List.map tamper_line expected.(0);
          ignore (mix_round mix conns));
      mix.expected.(0) <- expected.(0);
      expect_caught "equation reply differs from the library payload" (fun () ->
          let eq = Array.copy mix.expected_eq in
          Array.iteri (fun i p -> mix.expected_eq.(i) <- tamper_line p) eq;
          ignore (mix_round mix conns);
          Array.blit eq 0 mix.expected_eq 0 (Array.length eq));
      expect_caught "warm reply differs from cold" (fun () ->
          let cold = mix.expected.(3) in
          check (results (List.map tamper_line cold) = results cold) "warm differs from cold");
      Array.iter Client.close conns);
  Printf.printf "%s\n" (if !missed = 0 then "every check caught its perturbation" else "SOME CHECKS MISSED");
  exit (if !missed = 0 then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME cold-k13 | batch-k10-13-j2 | routed-serve-mix");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--check-selftest", Arg.Unit check_selftest, " feed every output check a perturbed result");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let seed = !seed and seconds = !seconds and trace = !trace = 1 in
  match !workload with
  | "cold-k13" ->
    hybrid_workload ~name:"cold-k13" ~call:cold_call ~specs:cold_specs ~slots:1 ~seed
      ~seconds ~trace
  | "batch-k10-13-j2" ->
    hybrid_workload ~name:"batch-k10-13-j2" ~call:batch_call ~specs:batch_specs
      ~slots:batch_jobs ~seed ~seconds ~trace
  | "routed-serve-mix" -> serve_workload ~seed ~seconds ~trace
  | w ->
    prerr_endline ("unknown workload: " ^ w);
    exit 2
