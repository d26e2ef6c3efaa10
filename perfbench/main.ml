(* perfbench: one benchmark for the accc tool (wall clock) and the machine
   it models (simulated clock).

     bash perfbench/run.sh --workload paper|scaleout|fleet --seed N --seconds S --trace 0|1

   A run sets up the workload several times (machines, parse and plan,
   sequential-oracle outputs, plan-cache priming, one warm-up pass) and
   keeps the last set-up; it then repeats full passes over the workload's
   fixed operation list for [--seconds] seconds. Every operation's outputs
   are checked against the oracle and its report JSON against the warm-up
   pass. With [--trace 1] one more set of passes replays each operation
   through the public calls of every layer, recording a span around each
   call, and the per-layer metrics come from those spans. The last line of
   stdout is the result object; README.md maps every metric to its layer
   and workload. *)

open Mgacc
open Mgacc_apps

let now = Unix.gettimeofday
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  name : string;
  op : int;  (** operation index within the pass, -1 outside operations *)
  parent : int;  (** index of the enclosing span, -1 at the root *)
  start : float;
  stop : float;
  words : float;  (** minor-heap words allocated inside the span *)
  majors : int;  (** major collections completed inside the span *)
}

type tracer = {
  mutable buf : span array;
  mutable len : int;
  mutable stack : int list;
  mutable current_op : int;
}

let no_span = { name = ""; op = -1; parent = -1; start = 0.0; stop = 0.0; words = 0.0; majors = 0 }
let tracer () = { buf = Array.make 4096 no_span; len = 0; stack = []; current_op = -1 }

(* Time [f] as a span named [name], nested under the innermost open span.
   Spans stay in memory; [write_spans] saves them when the run ends. *)
let span tr name f =
  let idx = tr.len in
  if idx = Array.length tr.buf then begin
    let bigger = Array.make (2 * idx) no_span in
    Array.blit tr.buf 0 bigger 0 idx;
    tr.buf <- bigger
  end;
  tr.len <- idx + 1;
  let parent = match tr.stack with p :: _ -> p | [] -> -1 in
  tr.stack <- idx :: tr.stack;
  let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
  let start = now () in
  Fun.protect f ~finally:(fun () ->
      let stop = now () in
      let words = Gc.minor_words () -. w0 in
      let majors = (Gc.quick_stat ()).Gc.major_collections - m0 in
      tr.buf.(idx) <- { name; op = tr.current_op; parent; start; stop; words; majors };
      tr.stack <- List.tl tr.stack)

let spans tr = Array.sub tr.buf 0 tr.len

(* Self time and self allocation of every span named [name] in [ss], summed:
   a span's duration minus the durations of its direct children (children
   run inside their parent one after another, so they never overlap). *)
let self_totals (ss : span array) =
  let child_s = Array.make (Array.length ss) 0.0 and child_w = Array.make (Array.length ss) 0.0 in
  Array.iter
    (fun s ->
      if s.parent >= 0 then begin
        child_s.(s.parent) <- child_s.(s.parent) +. (s.stop -. s.start);
        child_w.(s.parent) <- child_w.(s.parent) +. s.words
      end)
    ss;
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let secs, words =
        Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name
        (secs +. (s.stop -. s.start -. child_s.(i)), words +. (s.words -. child_w.(i))))
    ss;
  fun name -> Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt tbl name)

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

type kind = Acc | Host | Fleet_replay

type outcome = {
  json : string;  (** Report.to_json, or Fleet.to_json for a fleet replay *)
  reports : Report.t list;
  stats : Fleet.stats option;
  sim_spans : int;  (** spans the simulated machine recorded (runtime runs) *)
  verdict : (unit, string) result;  (** outputs against the oracle *)
}

type op = {
  key : string;  (** "<app>.<cell>": the prog.* row *)
  kind : kind;
  prepare : unit -> unit;  (** untimed, before each run *)
  run : unit -> outcome;  (** the library's own entry point *)
  replay : tracer -> outcome;  (** the same run through each layer's public calls, with spans *)
}

let compare_floats name expected got =
  let n = Array.length expected in
  if Array.length got <> n then
    Error (Printf.sprintf "%s: length %d vs %d" name (Array.length got) n)
  else
    let rec go i =
      if i = n then Ok ()
      else
        let e = expected.(i) and g = got.(i) in
        if Float.abs (e -. g) > 1e-6 *. Float.max 1.0 (Float.abs e) then
          Error (Printf.sprintf "%s[%d]: expected %.12g, got %.12g" name i e g)
        else go (i + 1)
    in
    go 0

let compare_ints name expected got =
  if expected = got then Ok () else Error (Printf.sprintf "%s: integer results differ" name)

let ( &&& ) a b = match a with Ok () -> b () | Error _ -> a

let acc_outcome ~machine ~app ~oracle (env, report) =
  {
    json = Report.to_json report;
    reports = [ report ];
    stats = None;
    sim_spans = List.length (Trace.spans machine.Machine.trace);
    verdict = App_common.verify app ~against:(Lazy.force oracle) env;
  }

let host_outcome verdict report =
  { json = Report.to_json report; reports = [ report ]; stats = None; sim_spans = 0; verdict }

let traced_hooks tr (h : Host_interp.hooks) =
  {
    Host_interp.on_parallel_loop =
      (fun env loop -> span tr "runtime.loop" (fun () -> h.Host_interp.on_parallel_loop env loop));
    on_data_enter =
      (fun env cl -> span tr "runtime.data" (fun () -> h.Host_interp.on_data_enter env cl));
    on_data_exit =
      (fun env cl -> span tr "runtime.data" (fun () -> h.Host_interp.on_data_exit env cl));
    on_update_host =
      (fun env subs -> span tr "runtime.data" (fun () -> h.Host_interp.on_update_host env subs));
    on_update_device =
      (fun env subs -> span tr "runtime.data" (fun () -> h.Host_interp.on_update_device env subs));
  }

let parse (app : App_common.t) =
  parse_string ~name:(app.App_common.name ^ ".c") app.App_common.source

(* [Acc_runtime.run]'s own sequence, with a span at every layer call. *)
let replay_acc tr ~config ~variant ~with_blame program =
  Machine.reset config.Rt_config.machine;
  let plans =
    span tr "translator.plan" (fun () ->
        Program_plan.build ~options:config.Rt_config.translator program)
  in
  let t = Acc_runtime.create config plans in
  let hooks = traced_hooks tr (Acc_runtime.hooks t) in
  let env =
    span tr "exec.host" (fun () -> Host_interp.run_program ~hooks (Program_plan.program plans))
  in
  span tr "runtime.data" (fun () -> Acc_runtime.finish t);
  let report = Acc_runtime.report ~variant t in
  let report =
    if with_blame then
      Report.with_blame report (span tr "obs.blame" (fun () -> Acc_runtime.blame t))
    else report
  in
  (env, report)

(* [entry] is the library's own call; the replay rebuilds it from [config],
   and the fidelity pin checks that the two agree. *)
let acc_op ~key ~machine ~config ~variant ~with_blame ~app ~oracle ~entry =
  {
    key;
    kind = Acc;
    prepare = ignore;
    run = (fun () -> acc_outcome ~machine ~app ~oracle (entry ()));
    replay =
      (fun tr ->
        let program = span tr "minic.parse" (fun () -> parse app) in
        acc_outcome ~machine ~app ~oracle
          (replay_acc tr ~config ~variant ~with_blame program));
  }

(* ------------------------------------------------------------------ *)
(* Workload: paper (Figs. 7-9)                                         *)
(* ------------------------------------------------------------------ *)

(* Stock single-GPU OpenACC, as [App_common.pgi] configures it. *)
let pgi_options =
  {
    Kernel_plan.enable_distribution = false;
    enable_layout_transform = false;
    enable_miss_check_elim = false;
    enable_fusion = false;
    enable_decomp2d = false;
  }

type paper_app = {
  app : App_common.t;
  cuda : Machine.t -> Host_interp.env -> (unit, string) result * Report.t;
      (** the hand-written CUDA baseline and its outputs against the oracle *)
}

(* The apps' seeds come from the workload seed. Sizes are near the bench
   harness's "small" inputs; kmeans is smaller still, because its
   sequential oracle costs ~0.1 ms of tree-walking per point-iteration. *)
let paper_apps seed =
  let md = { Md.atoms = 1024; max_neighbors = 16; seed = 42 + seed } in
  let km =
    { Kmeans.points = 2500; features = 12; clusters = 5; iterations = 4; seed = 11 + seed }
  in
  let bfs = { Bfs.nodes = 12000; max_degree = 10; seed = 5 + seed } in
  [
    {
      app = Md.app md;
      cuda =
        (fun machine oracle ->
          let force, r = Md.run_cuda ~machine md in
          (compare_floats "force" (float_results oracle "force") force, r));
    };
    {
      app = Kmeans.app km;
      cuda =
        (fun machine oracle ->
          let centers, membership, r = Kmeans.run_cuda ~machine km in
          ( (compare_floats "centers" (float_results oracle "centers") centers &&& fun () ->
             compare_ints "membership" (int_results oracle "membership") membership),
            r ));
    };
    {
      app = Bfs.app bfs;
      cuda =
        (fun machine oracle ->
          let levels, r = Bfs.run_cuda ~machine bfs in
          (compare_ints "levels" (int_results oracle "levels") levels, r));
    };
  ]

let paper_ops ~oracle_of apps =
  let desktop = Machine.desktop () and supernode = Machine.supernode () in
  List.concat_map
    (fun { app; cuda } ->
      let oracle = oracle_of app in
      let name = app.App_common.name in
      let openmp =
        {
          key = name ^ ".desktop_openmp";
          kind = Host;
          prepare = ignore;
          run =
            (fun () ->
              let env, r = App_common.openmp ~machine:(Machine.desktop ()) app in
              host_outcome (App_common.verify app ~against:(Lazy.force oracle) env) r);
          replay =
            (fun tr ->
              let machine = Machine.desktop () in
              let program = span tr "minic.parse" (fun () -> parse app) in
              let env, r = span tr "openmp.run" (fun () -> Openmp.run ~machine program) in
              host_outcome (App_common.verify app ~against:(Lazy.force oracle) env) r);
        }
      in
      let cuda_op =
        {
          key = name ^ ".desktop_cuda1";
          kind = Host;
          prepare = ignore;
          run =
            (fun () ->
              let verdict, r = cuda (Machine.desktop ()) (Lazy.force oracle) in
              host_outcome verdict r);
          replay =
            (fun tr ->
              let machine = Machine.desktop () in
              let oracle = Lazy.force oracle in
              let verdict, r = span tr "cuda.run" (fun () -> cuda machine oracle) in
              host_outcome verdict r);
        }
      in
      let pgi =
        acc_op ~key:(name ^ ".desktop_pgi1") ~machine:desktop
          ~config:(Rt_config.make ~num_gpus:1 ~translator:pgi_options desktop)
          ~variant:"pgi(1)" ~with_blame:false ~app ~oracle
          ~entry:(fun () -> App_common.pgi ~machine:desktop app)
      in
      let proposal machine label n =
        acc_op
          ~key:(Printf.sprintf "%s.%s_proposal%d" name label n)
          ~machine
          ~config:(Rt_config.make ~num_gpus:n ~translator:Kernel_plan.default_options machine)
          ~variant:(Printf.sprintf "proposal(%d)" n) ~with_blame:false ~app ~oracle
          ~entry:(fun () -> App_common.proposal ~num_gpus:n ~machine app)
      in
      [ openmp; pgi; cuda_op; proposal desktop "desktop" 1; proposal desktop "desktop" 2 ]
      @ List.map (proposal supernode "supernode") [ 1; 2; 3 ])
    apps

(* ------------------------------------------------------------------ *)
(* Workload: scaleout (16 and 64 GPUs)                                 *)
(* ------------------------------------------------------------------ *)

(* The stencil of `bench scale`: an inner parallel column loop makes it
   2-D eligible. The seed shifts the initial field. *)
let jacobi ~rows ~cols ~iters ~seed =
  {
    App_common.name = "jacobi";
    source =
      Printf.sprintf
        {|void main() {
            int rows = %d; int cols = %d; int iters = %d; int seed = %d; int it; int r; int c;
            double u[rows][cols];
            double v[rows][cols];
            for (r = 0; r < rows; r++) { for (c = 0; c < cols; c++) { u[r][c] = 1.0 * ((r * 13 + c * 7 + seed) %% 19); v[r][c] = u[r][c]; } }
            #pragma acc data copy(u[0:rows*cols]) copy(v[0:rows*cols])
            {
              for (it = 0; it < iters; it++) {
                #pragma acc parallel loop localaccess(u: stride(cols, cols, cols), v: stride(cols))
                for (r = 0; r < rows; r++) {
                  if (r > 0 && r < rows - 1) {
                    #pragma acc loop
                    for (c = 1; c < cols - 1; c++) {
                      v[r][c] = 0.25 * (u[r-1][c] + u[r+1][c] + u[r][c-1] + u[r][c+1]);
                    }
                  }
                }
                #pragma acc parallel loop localaccess(v: stride(cols, cols, cols), u: stride(cols))
                for (r = 0; r < rows; r++) {
                  if (r > 0 && r < rows - 1) {
                    #pragma acc loop
                    for (c = 1; c < cols - 1; c++) {
                      u[r][c] = 0.25 * (v[r-1][c] + v[r+1][c] + v[r][c-1] + v[r][c+1]);
                    }
                  }
                }
              }
            }
          }|}
        rows cols iters seed;
    result_arrays = [ "u"; "v" ];
  }

let scaleout_apps seed =
  [
    jacobi ~rows:96 ~cols:96 ~iters:2 ~seed:(seed mod 19);
    Spmv.app { Spmv.rows = 1024; width = 8; iterations = 2; seed = 19 + seed };
    Fusionable.md { Fusionable.particles = 2048; steps = 2 };
    Kmeans.app
      { Kmeans.points = 2048; features = 8; clusters = 5; iterations = 2; seed = 11 + seed };
  ]

(* `accc run --overlap on --coherence lazy --collective auto --decomp 2d
   --fuse on --schedule adaptive --blame` *)
let all_on machine ~num_gpus =
  Rt_config.make ~num_gpus ~overlap:true ~coherence:Rt_config.Lazy ~collective:Rt_config.Auto
    ~schedule:Sched_policy.Adaptive
    ~translator:
      { Kernel_plan.default_options with Kernel_plan.enable_fusion = true; enable_decomp2d = true }
    machine

let scaleout_ops ~oracle_of apps =
  let machines =
    List.map
      (fun s ->
        match Machine.spec_of_string s with
        | Ok spec -> (s, Machine.spec_gpus spec, Machine.of_spec spec)
        | Error e -> failwith e)
      [ "fattree:4x4"; "fattree:16x4" ]
  in
  List.concat_map
    (fun app ->
      let oracle = oracle_of app in
      List.concat_map
        (fun (spec, gpus, machine) ->
          List.map
            (fun (label, config) ->
              let variant = Printf.sprintf "proposal(%d)" gpus in
              acc_op
                ~key:
                  (Printf.sprintf "%s.%s_%s" app.App_common.name
                     (String.map (function ':' -> '_' | ch -> ch) spec)
                     label)
                ~machine ~config ~variant ~with_blame:true ~app ~oracle
                ~entry:(fun () -> run_acc ~config ~variant ~with_blame:true ~machine (parse app)))
            [
              ("defaults", Rt_config.make ~num_gpus:gpus machine);
              ("allon", all_on machine ~num_gpus:gpus);
            ])
        machines)
    apps

(* ------------------------------------------------------------------ *)
(* Workload: fleet                                                     *)
(* ------------------------------------------------------------------ *)

(* Short sessions: per-session costs (admission, warm pools, plan-cache
   lookups) weigh more than in one long run. Each app comes in
   [fleet_variants] inputs, so that one input's quirks (bfs's level
   count, say) do not repeat in every copy. *)
let fleet_variants = 3

let fleet_sources seed =
  List.concat_map
    (fun k ->
      let seed = (fleet_variants * seed) + k in
      List.map
        (fun (app : App_common.t) -> (app.App_common.name, app.App_common.source))
        [
          Md.app { Md.atoms = 256; max_neighbors = 16; seed = 42 + seed };
          Kmeans.app
            { Kmeans.points = 800; features = 12; clusters = 5; iterations = 4; seed = 11 + seed };
          Bfs.app { Bfs.nodes = 3000; max_degree = 10; seed = 5 + seed };
          Spmv.app { Spmv.rows = 1024; width = 8; iterations = 3; seed = 19 + seed };
          Montecarlo.app { Montecarlo.paths = 2000; steps = 8; bins = 32; seed = 29 + seed };
        ])
    (List.init fleet_variants Fun.id)

(* Copies of every source in the trace. *)
let fleet_copies = 2
let tenants = [| "alice"; "bob"; "carol"; "dave" |]

(* An open loop in simulated time: every source [fleet_copies] times, in
   a seeded order, arriving in bursts of 1-6 jobs. The mean gap between
   bursts offers four times the load the machine can serve, so the queue grows
   until the last burst and then drains; the makespan is then set by the
   work, not by when the last job happened to arrive. *)
let fleet_jobs ~seed ~mean_job_s sources =
  let rng = Xorshift.create (1000 + seed) in
  let picks = Array.of_list (List.concat (List.init fleet_copies (fun _ -> sources))) in
  Xorshift.shuffle rng picks;
  let clock = ref 0.0 and left_in_burst = ref 0 in
  Array.to_list
    (Array.mapi
       (fun i (name, source) ->
         if !left_in_burst = 0 then begin
           let size = Xorshift.int_in rng 1 6 in
           left_in_burst := size;
           if i > 0 then
             clock := !clock +. Xorshift.float rng (float_of_int size *. mean_job_s /. 2.0)
         end;
         decr left_in_burst;
         Fleet_job.make ~id:i
           ~tenant:tenants.(Xorshift.int rng (Array.length tenants))
           ~name ~source
           ~submit:(!clock +. Xorshift.float rng 1e-6))
       picks)

let fleet_key = "fleet.cluster_2x2_sjf"

type fleet_state = { replay_op : op; fresh_machine : unit -> unit }

let fleet_op seed =
  let sources = fleet_sources seed in
  let machine_of () =
    match Machine.spec_of_string "cluster:2x2" with
    | Ok s -> Machine.of_spec s
    | Error e -> failwith e
  in
  let cache = Plan_cache.create () in
  (* Prime as `bench fleet` does: one solo run per program records its
     measured duration and device footprint in the shared cache. *)
  List.iter
    (fun (name, source) ->
      let config = Fleet.configure ~policy:Fleet.Fifo ~keep_warm:true (machine_of ()) in
      let job = Fleet_job.make ~id:0 ~tenant:"prime" ~name ~source ~submit:0.0 in
      ignore (Fleet.run ~cache config [ job ]))
    sources;
  let machine_name = (machine_of ()).Machine.name in
  let entries =
    List.map
      (fun (name, source) -> fst (Plan_cache.lookup ~machine:machine_name ~name cache source))
      sources
  in
  let primed =
    List.map (fun e -> (e, e.Plan_cache.measured_seconds, e.Plan_cache.footprint_bytes)) entries
  in
  let restore () =
    List.iter
      (fun (e, s, f) ->
        e.Plan_cache.measured_seconds <- s;
        e.Plan_cache.footprint_bytes <- f)
      primed
  in
  let footprint e = Option.value ~default:0 e.Plan_cache.footprint_bytes in
  let budget = 2 * List.fold_left (fun acc e -> max acc (footprint e)) 1 entries in
  let measured e = Option.value ~default:0.0 e.Plan_cache.measured_seconds in
  let mean_job_s =
    List.fold_left (fun acc e -> acc +. measured e) 0.0 entries
    /. float_of_int (List.length entries)
  in
  let jobs = fleet_jobs ~seed ~mean_job_s sources in
  let configure () =
    Fleet.configure ~policy:Fleet.Sjf ~mem_budget:budget ~keep_warm:true ~watchdog_seconds:3600.0
      (machine_of ())
  in
  (* [Fleet.run] resets the machine's timelines but not the device
     allocations a previous replay's warm pools left behind, so every pass
     gets a machine of its own. *)
  let config = ref (configure ()) in
  let fresh_machine () = config := configure () in
  let outcome_of (o : Fleet.outcome) =
    let done_jobs = List.length o.Fleet.jobs in
    {
      json = Fleet.to_json o;
      reports = List.map (fun (r : Fleet.job_result) -> r.Fleet.report) o.Fleet.jobs;
      stats = Some o.Fleet.stats;
      sim_spans = 0;
      verdict =
        (if done_jobs = List.length jobs then Ok ()
         else Error (Printf.sprintf "%d of %d jobs finished" done_jobs (List.length jobs)));
    }
  in
  let op =
    {
      key = fleet_key;
      kind = Fleet_replay;
      prepare =
        (fun () ->
          fresh_machine ();
          restore ());
      run = (fun () -> outcome_of (Fleet.run ~cache !config jobs));
      replay =
        (fun tr -> outcome_of (span tr "fleet.run" (fun () -> Fleet.run ~cache !config jobs)));
    }
  in
  { replay_op = op; fresh_machine }

(* Every prog.* row of every workload: all three print the same per-layer
   list, and another workload's row reads 0. *)
let all_prog_keys () =
  let no_oracle _ = lazy (invalid_arg "no oracle") in
  List.map
    (fun op -> op.key)
    (paper_ops ~oracle_of:no_oracle (paper_apps 0)
    @ scaleout_ops ~oracle_of:no_oracle (scaleout_apps 0))
  @ [ fleet_key ]

(* ------------------------------------------------------------------ *)
(* Set-up and passes                                                   *)
(* ------------------------------------------------------------------ *)

type setup = {
  ops : op array;
  reference : string array;  (** warm-up pass report JSON, per operation *)
  oracle_s : float;
  oracle_words : float;
  fleet : fleet_state option;
}

type pass = {
  wall : float;  (** the pass's wall time, untimed work excluded *)
  untimed : float;  (** seconds of probe slices and [prepare] calls *)
  probe : float;  (** median probe slice during the pass *)
  op_walls : float array;
  failures : int;
  results : outcome option array;
  minor_words : float;
  major_collections : int;
}

(* An operation fails if it raised, if its outputs differ from the
   oracle's, or if its report JSON differs from the warm-up pass's. *)
let failure_of (result : outcome option) reference =
  match result with
  | None -> Some "raised"
  | Some o -> (
      match o.verdict with
      | Error e -> Some e
      | Ok () when reference <> "" && o.json <> reference ->
          Some "report JSON differs from the warm-up pass"
      | Ok () -> None)

(* ------------------------------------------------------------------ *)
(* Host-speed probe                                                    *)
(* ------------------------------------------------------------------ *)

(* The shared host changes speed by up to 30% over seconds to minutes,
   and the process's CPU time moves with its wall time, so neither longer
   runs nor CPU time remove the drift. A fixed slice of allocation-heavy
   work that shares no code with mgacc runs between operations, and the
   end-to-end wall metrics are rescaled by the slices' median time against
   [probe_ref_s] (README.md, "Noise"). *)
let probe_ref_s = 0.005

let probe_slice () =
  let t0 = now () in
  let tbl = Hashtbl.create 1024 in
  let acc = ref 0.0 in
  for i = 0 to 20_000 do
    let l = List.init 8 (fun j -> float_of_int (i + j)) in
    acc := !acc +. List.fold_left ( +. ) 0.0 l;
    Hashtbl.replace tbl (i land 1023) l
  done;
  ignore (Sys.opaque_identity (!acc, tbl));
  now () -. t0

let probe_slices k = List.init k (fun _ -> probe_slice ())

(* [wall] in reference-host seconds. *)
let scaled ~wall ~probe = wall *. probe_ref_s /. probe

let run_pass ?tracer ops reference =
  Gc.compact ();
  let n = Array.length ops in
  let op_walls = Array.make n 0.0 and results = Array.make n None in
  let failures = ref 0 in
  (* Probe slices (at least 8 per pass, before every operation and after
     the last one) and [prepare] calls are left out of the pass's time and
     allocation. *)
  let reps = max 1 (8 / (n + 1)) in
  let slices = ref [] and untimed = ref 0.0 and untimed_words = ref 0.0 in
  let off_clock f =
    let w = Gc.minor_words () and t = now () in
    f ();
    untimed := !untimed +. (now () -. t);
    untimed_words := !untimed_words +. (Gc.minor_words () -. w)
  in
  let probe () = slices := probe_slices reps @ !slices in
  let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = now () in
  Array.iteri
    (fun i op ->
      off_clock op.prepare;
      off_clock probe;
      let s = now () in
      let result =
        try
          Some
            (match tracer with
            | None -> op.run ()
            | Some tr ->
                tr.current_op <- i;
                span tr "op" (fun () -> op.replay tr))
        with e ->
          log "perfbench: %s raised %s" op.key (Printexc.to_string e);
          None
      in
      op_walls.(i) <- now () -. s;
      results.(i) <- result;
      match failure_of result reference.(i) with
      | None -> ()
      | Some why ->
          incr failures;
          log "perfbench: %s failed: %s" op.key why)
    ops;
  off_clock probe;
  {
    wall = now () -. t0 -. !untimed;
    untimed = !untimed;
    probe = median !slices;
    op_walls;
    failures = !failures;
    results;
    minor_words = Gc.minor_words () -. w0 -. !untimed_words;
    major_collections = (Gc.quick_stat ()).Gc.major_collections - m0;
  }

let set_up workload seed =
  let oracle_s = ref 0.0 and oracle_words = ref 0.0 in
  let oracles = ref [] in
  let oracle_of (app : App_common.t) =
    let oracle =
      lazy
        (let program = parse app in
         ignore (Program_plan.build program);
         let w0 = Gc.minor_words () and t0 = now () in
         let env = run_sequential program in
         oracle_s := !oracle_s +. (now () -. t0);
         oracle_words := !oracle_words +. (Gc.minor_words () -. w0);
         env)
    in
    oracles := oracle :: !oracles;
    oracle
  in
  let ops, fleet =
    match workload with
    | "paper" -> (paper_ops ~oracle_of (paper_apps seed), None)
    | "scaleout" -> (scaleout_ops ~oracle_of (scaleout_apps seed), None)
    | "fleet" ->
        let f = fleet_op seed in
        ([ f.replay_op ], Some f)
    | w -> invalid_arg w
  in
  List.iter (fun o -> ignore (Lazy.force o)) !oracles;
  let ops = Array.of_list ops in
  let warm = run_pass ops (Array.make (Array.length ops) "") in
  let reference = Array.map (function Some o -> o.json | None -> "") warm.results in
  ({ ops; reference; oracle_s = !oracle_s; oracle_words = !oracle_words; fleet }, warm)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type value = F of float | I of int

let metric_json (name, unit, v) =
  let v =
    match v with
    | I n -> string_of_int n
    | F x when Float.is_finite x -> Printf.sprintf "%.17g" x
    | F _ -> "0"
  in
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name v unit

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

let outcomes (p : pass) = List.filter_map Fun.id (Array.to_list p.results)

let all_reports p = List.concat_map (fun o -> o.reports) (outcomes p)

(* Reports of runs that went through the multi-GPU runtime. *)
let runtime_reports ops (p : pass) =
  List.concat
    (List.mapi
       (fun i r ->
         match (ops.(i).kind, r) with
         | (Acc | Fleet_replay), Some o -> o.reports
         | Host, _ | _, None -> [])
       (Array.to_list p.results))

let fleet_stats p = List.find_map (fun o -> o.stats) (outcomes p)

let sim_s p =
  match fleet_stats p with
  | Some s -> s.Fleet.makespan
  | None -> sumf (fun r -> r.Report.total_time) (all_reports p)

let sim_bytes p = sum (fun r -> r.Report.cpu_gpu_bytes + r.Report.gpu_gpu_bytes) (all_reports p)

let device_peak_bytes p =
  List.fold_left
    (fun acc r -> max acc (r.Report.mem_user_bytes + r.Report.mem_system_bytes))
    0 (all_reports p)

let host_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Per-layer metrics from the traced pass [tp] (spans [ss]) and the timed
   passes. Every name exists on every workload; one that does not apply
   reads 0. *)
let layer_metrics (s : setup) ~timed ~(tp : pass) ~ss ~pass_s ~setup_raw ~attempted ~failed ~drift =
  let self = self_totals ss in
  let secs name = fst (self name) and mwords name = snd (self name) /. 1e6 in
  let reports = runtime_reports s.ops tp in
  let r_sumf f = sumf f reports and r_sum f = sum f reports in
  let launches = r_sum (fun r -> r.Report.launches) in
  let sim_spans = sum (fun o -> o.sim_spans) (outcomes tp) in
  let loop_s = secs "runtime.loop" in
  let shipped = r_sum (fun r -> r.Report.coh_shipped_bytes)
  and deferred = r_sum (fun r -> r.Report.coh_deferred_bytes) in
  let stats = fleet_stats tp in
  let stat f = match stats with Some st -> f st | None -> 0 in
  let statf f = match stats with Some st -> f st | None -> 0.0 in
  let fleet_run_s = secs "fleet.run" in
  let layers =
    [ "minic.parse"; "translator.plan"; "exec.host"; "runtime.loop"; "runtime.data"; "obs.blame";
      "openmp.run"; "cuda.run"; "fleet.run" ]
  in
  let covered = List.fold_left (fun acc l -> acc +. secs l) 0.0 layers in
  let op_wall key =
    let rec find i =
      if i = Array.length s.ops then 0.0
      else if s.ops.(i).key = key then median (List.map (fun p -> p.op_walls.(i)) timed)
      else find (i + 1)
    in
    find 0
  in
  let per_op =
    List.map
      (fun key -> (Printf.sprintf "prog.%s.wall_s" key, "s", F (op_wall key)))
      (all_prog_keys ())
  in
  [
    ("minic.parse_s", "s", F (secs "minic.parse"));
    ("translator.plan_s", "s", F (secs "translator.plan"));
    ("translator.fused_kernels", "count", I (r_sum (fun r -> r.Report.fused_kernels)));
    ("translator.contracted_arrays", "count", I (r_sum (fun r -> r.Report.contracted_arrays)));
    ("translator.relayouts", "count", I (r_sum (fun r -> r.Report.relayouts)));
    ( "plan_cache.hit_ratio",
      "ratio",
      F (ratio (stat (fun st -> st.Fleet.cache_hits))
           (stat (fun st -> st.Fleet.cache_hits + st.Fleet.cache_misses))) );
    ("exec.host_s", "s", F (secs "exec.host"));
    ("exec.host_mwords", "Mwords", F (mwords "exec.host"));
    ("exec.oracle_s", "s", F s.oracle_s);
    ("exec.oracle_mwords", "Mwords", F (s.oracle_words /. 1e6));
    ("runtime.loop_s", "s", F loop_s);
    ("runtime.loop_mwords", "Mwords", F (mwords "runtime.loop"));
    ("runtime.data_s", "s", F (secs "runtime.data"));
    ("runtime.launches", "count", I launches);
    ( "runtime.loop_us_per_launch",
      "us",
      F (if launches = 0 then 0.0 else loop_s *. 1e6 /. float_of_int launches) );
    ("runtime.sim_spans", "count", I sim_spans);
    ( "runtime.wall_us_per_sim_span",
      "us",
      F (if sim_spans = 0 then 0.0 else loop_s *. 1e6 /. float_of_int sim_spans) );
    ("runtime.kernel_sim_s", "s", F (r_sumf (fun r -> r.Report.kernel_time)));
    ("runtime.cpu_gpu_sim_s", "s", F (r_sumf (fun r -> r.Report.cpu_gpu_time)));
    ("runtime.gpu_gpu_sim_s", "s", F (r_sumf (fun r -> r.Report.gpu_gpu_time)));
    ("runtime.overhead_sim_s", "s", F (r_sumf (fun r -> r.Report.overhead_time)));
    ("runtime.hidden_sim_s", "s", F (r_sumf (fun r -> r.Report.hidden_seconds)));
    ("runtime.cpu_gpu_bytes", "B", I (r_sum (fun r -> r.Report.cpu_gpu_bytes)));
    ("runtime.gpu_gpu_bytes", "B", I (r_sum (fun r -> r.Report.gpu_gpu_bytes)));
    ("runtime.wire_bytes", "B", I (r_sum (fun r -> r.Report.wire_bytes)));
    ("runtime.prefetch_hits", "count", I (r_sum (fun r -> r.Report.prefetch_hits)));
    ( "runtime.mem_user_bytes",
      "B",
      I (List.fold_left (fun acc r -> max acc r.Report.mem_user_bytes) 0 reports) );
    ( "runtime.mem_system_bytes",
      "B",
      I (List.fold_left (fun acc r -> max acc r.Report.mem_system_bytes) 0 reports) );
    ("coherence.shipped_bytes", "B", I shipped);
    ("coherence.deferred_bytes", "B", I deferred);
    ("coherence.pulled_bytes", "B", I (r_sum (fun r -> r.Report.coh_pulled_bytes)));
    ( "coherence.elided_ratio",
      "ratio",
      F (ratio (r_sum Report.coh_elided_bytes) (shipped + deferred)) );
    ("collective.rings", "count", I (r_sum (fun r -> r.Report.collective_rings)));
    ("collective.hierarchies", "count", I (r_sum (fun r -> r.Report.collective_hierarchies)));
    ("collective.direct_groups", "count", I (r_sum (fun r -> r.Report.collective_direct_groups)));
    ("collective.segments", "count", I (r_sum (fun r -> r.Report.collective_segments)));
    ("sched.rebalances", "count", I (r_sum (fun r -> r.Report.rebalances)));
    ( "sched.mean_imbalance",
      "ratio",
      F (if reports = [] then 0.0
         else r_sumf (fun r -> r.Report.mean_imbalance) /. float_of_int (List.length reports)) );
    ("openmp.run_s", "s", F (secs "openmp.run"));
    ("cuda.run_s", "s", F (secs "cuda.run"));
    ("obs.blame_s", "s", F (secs "obs.blame"));
    ("fleet.run_s", "s", F fleet_run_s);
    ( "fleet.jobs_per_wall_s",
      "1/s",
      F (if fleet_run_s = 0.0 then 0.0
         else float_of_int (stat (fun st -> st.Fleet.job_count)) /. fleet_run_s) );
    ("fleet.evictions", "count", I (stat (fun st -> st.Fleet.evictions)));
    ("fleet.spilled_bytes", "B", I (stat (fun st -> st.Fleet.spilled_bytes)));
    ("fleet.fairness", "ratio", F (statf (fun st -> st.Fleet.fairness)));
    ("fleet.feedback_drift", "count", I drift);
    ("sim_mean_wait_s", "s", F (statf (fun st -> st.Fleet.mean_wait)));
    ("gc.minor_mwords", "Mwords", F (median (List.map (fun p -> p.minor_words /. 1e6) timed)));
    ( "gc.major_collections",
      "count",
      F (median (List.map (fun p -> float_of_int p.major_collections) timed)) );
    ("fail_ratio", "ratio", F (ratio failed attempted));
    ("host.probe_ms", "ms", F (1e3 *. median (List.map (fun p -> p.probe) timed)));
    ("wall.setup_raw_s", "s", F setup_raw);
    ("wall.pass_raw_s", "s", F (median (List.map (fun p -> p.wall) timed)));
    ("trace.pass_s", "s", F tp.wall);
    ("trace.overhead_s", "s", F (scaled ~wall:tp.wall ~probe:tp.probe -. pass_s));
    ("trace.unattributed_s", "s", F (tp.wall -. covered));
  ]
  @ per_op

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let setups = 3
let min_passes = 3
let traced_passes = 3

let write_spans ~workload ~seed passes =
  let dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.spans.jsonl" workload seed) in
  let oc = open_out path in
  List.iteri
    (fun k ss ->
      Array.iteri
        (fun i s ->
          Printf.fprintf oc
            "{\"pass\":%d,\"span\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start\":%.9f,\
             \"end\":%.9f,\"minor_words\":%.0f,\"major_collections\":%d}\n"
            k i s.name s.op s.parent s.start s.stop s.words s.majors)
        ss)
    passes;
  close_out oc;
  log "perfbench: spans written to %s" path

let main ~workload ~seed ~seconds ~trace =
  (* Set-up runs [setups] times; the last one is kept. Each repeats the
     whole job, so its warm-up references must agree across repeats. *)
  let setup_raw = ref [] and setup_scaled = ref [] in
  let kept = ref None and failed = ref 0 and attempted = ref 0 in
  for _ = 1 to setups do
    let previous = Option.map (fun s -> s.reference) !kept in
    kept := None;
    Gc.compact ();
    let early = probe_slices 4 in
    let t0 = now () in
    let s, warm = set_up workload seed in
    let wall = now () -. t0 -. warm.untimed in
    setup_raw := wall :: !setup_raw;
    setup_scaled := scaled ~wall ~probe:(median (early @ [ warm.probe ])) :: !setup_scaled;
    attempted := !attempted + Array.length s.ops;
    failed := !failed + warm.failures;
    if Option.fold ~none:false ~some:(fun r -> r <> s.reference) previous then begin
      log "perfbench: warm-up reports differ between set-ups";
      incr failed
    end;
    kept := Some s
  done;
  let s = Option.get !kept in
  let n = Array.length s.ops in
  log "perfbench: %s seed %d: %d operations, set-up %.3fs" workload seed n (median !setup_raw);
  let timed = ref [] and host_peak = ref 0.0 in
  let t_start = now () in
  while List.length !timed < min_passes || now () -. t_start < seconds do
    let p = run_pass s.ops s.reference in
    log "perfbench: pass %d: %.4fs, probe %.5fs" (List.length !timed + 1) p.wall p.probe;
    attempted := !attempted + n;
    failed := !failed + p.failures;
    timed := p :: !timed;
    (* The heap peak after a fixed amount of work: later passes, whose
       number depends on the host's speed, may not move it. *)
    if List.length !timed = min_passes then host_peak := host_peak_mb ()
  done;
  let timed = List.rev !timed in
  let pass_s = median (List.map (fun p -> scaled ~wall:p.wall ~probe:p.probe) timed) in
  log "perfbench: %d timed passes, median %.3fs (%.3fs scaled)" (List.length timed)
    (median (List.map (fun p -> p.wall) timed))
    pass_s;
  (* Every pass's reports equal the warm-up's, or the pass failed. *)
  let first = List.hd timed in
  let metrics =
    if not trace then
      [
        ("setup_s", "s", F (median !setup_scaled));
        ("pass_s", "s", F pass_s);
        ("sim_s", "s", F (sim_s first));
        ("sim_bytes", "B", I (sim_bytes first));
        ("device_peak_bytes", "B", I (device_peak_bytes first));
        ("host_peak_mb", "MB", F !host_peak);
      ]
    else begin
      (* Fidelity pin: a replay must reproduce the untraced report byte for
         byte, or its spans do not describe the real program. *)
      let traced =
        List.init traced_passes (fun _ ->
            let tr = tracer () in
            let p = run_pass ~tracer:tr s.ops s.reference in
            attempted := !attempted + n;
            failed := !failed + p.failures;
            (p, spans tr))
      in
      if List.exists (fun (p, _) -> p.failures > 0) traced then begin
        log "perfbench: fidelity pin failed: a traced replay differs from the untraced run; \
             layer metrics withheld";
        exit 3
      end;
      let drift =
        match s.fleet with
        | None -> 0
        | Some f ->
            (* Finding probe: does the cache's measurement feedback change
               the next replay when the primed state is not restored? *)
            f.replay_op.prepare ();
            let a = f.replay_op.run () in
            f.fresh_machine ();
            let b = f.replay_op.run () in
            if a.json = b.json then 0 else 1
      in
      let by_wall = List.sort (fun (a, _) (b, _) -> compare a.wall b.wall) traced in
      let tp, ss = List.nth by_wall (List.length by_wall / 2) in
      write_spans ~workload ~seed (List.map snd traced);
      layer_metrics s ~timed ~tp ~ss ~pass_s ~setup_raw:(median !setup_raw) ~attempted:!attempted
        ~failed:!failed ~drift
    end
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) !attempted !failed
    (String.concat ", " (List.map metric_json metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "paper|scaleout|fleet");
      ("--seed", Arg.Set_int seed, "input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "seconds of timed passes (default 10)");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: per-layer metrics");
    ]
  in
  let usage = "main.exe --workload paper|scaleout|fleet --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let known = List.mem !workload [ "paper"; "scaleout"; "fleet" ] in
  if (not known) || !seed < 0 || !trace < 0 || !trace > 1 then begin
    prerr_endline usage;
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
