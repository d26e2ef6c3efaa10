(* Tests for the execution layer: views, frames, and the closure compiler —
   host programs through Host_interp, kernels with their cost
   accounting. *)

open Mgacc_minic
module View = Mgacc_exec.View
module Frame = Mgacc_exec.Frame
module Host_interp = Mgacc_exec.Host_interp
module Kernel_compile = Mgacc_exec.Kernel_compile
module Loop_info = Mgacc_analysis.Loop_info
module Coalesce = Mgacc_analysis.Coalesce
module Cost = Mgacc_gpusim.Cost

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ---------------- Views ---------------- *)

let test_view_float () =
  let data = [| 1.0; 2.0; 3.0 |] in
  let v = View.of_float_array ~name:"x" data in
  check (Alcotest.float 1e-12) "get" 2.0 (v.View.get_f 1);
  v.View.set_f 1 9.0;
  check (Alcotest.float 1e-12) "aliases backing" 9.0 data.(1);
  v.View.reduce_f Ast.Rplus 0 5.0;
  check (Alcotest.float 1e-12) "in-place reduce" 6.0 data.(0);
  (match v.View.get_f 3 with
  | exception View.Bounds { index = 3; _ } -> ()
  | _ -> Alcotest.fail "bounds check");
  match v.View.get_i 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "type check"

let test_view_int_and_redops () =
  let v = View.of_int_array ~name:"k" [| 10; 20 |] in
  v.View.reduce_i Ast.Rmax 0 15;
  check Alcotest.int "max reduce" 15 (v.View.get_i 0);
  check Alcotest.int "redop id" 0 (View.redop_identity_i Ast.Rplus);
  check (Alcotest.float 1e-12) "mul id" 1.0 (View.redop_identity_f Ast.Rmul);
  check (Alcotest.float 1e-12) "min apply" 2.0 (View.apply_redop_f Ast.Rmin 2.0 7.0)

(* ---------------- Host interpreter semantics ---------------- *)

let run src = Host_interp.run_program (Parser.parse ~file:"t" src)

let test_interp_arith_and_control () =
  let env =
    run
      {|void main() {
          int fib1 = 1; int fib2 = 1; int i; int res[10];
          res[0] = 1; res[1] = 1;
          for (i = 2; i < 10; i++) { res[i] = res[i-1] + res[i-2]; }
          double x = 2.0;
          double y = x * 3 + 1;
          int parity = 0;
          while (1) { parity = parity + 1; if (parity >= 5) break; }
          res[0] = parity;
        }|}
  in
  let res = View.snapshot_i (Host_interp.find_array env "res") in
  check Alcotest.int "fib" 55 res.(9);
  check Alcotest.int "while+break" 5 res.(0)

let test_interp_functions () =
  let env =
    run
      {|int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
        void scale(double xs[], int n, double s) { int i; for (i = 0; i < n; i++) { xs[i] *= s; } }
        void main() {
          int out[1];
          out[0] = fact(6);
          double xs[3];
          xs[0] = 1.0; xs[1] = 2.0; xs[2] = 3.0;
          scale(xs, 3, 10.0);
        }|}
  in
  check Alcotest.int "recursion" 720 (View.snapshot_i (Host_interp.find_array env "out")).(0);
  let xs = View.snapshot_f (Host_interp.find_array env "xs") in
  check (Alcotest.float 1e-12) "array by reference" 30.0 xs.(2)

let test_interp_builtins_and_casts () =
  let env =
    run
      {|void main() {
          double r[5];
          r[0] = sqrt(16.0);
          r[1] = fmax(2.0, 3.0);
          r[2] = (double)(7 / 2);
          r[3] = (int)(3.9);
          r[4] = pow(2.0, 10.0);
        }|}
  in
  let r = View.snapshot_f (Host_interp.find_array env "r") in
  check (Alcotest.float 1e-12) "sqrt" 4.0 r.(0);
  check (Alcotest.float 1e-12) "fmax" 3.0 r.(1);
  check (Alcotest.float 1e-12) "int div" 3.0 r.(2);
  check (Alcotest.float 1e-12) "cast truncates" 3.0 r.(3);
  check (Alcotest.float 1e-9) "pow" 1024.0 r.(4)

let test_interp_sequential_parallel_loop () =
  (* Under the default hooks a parallel loop just runs in order. *)
  let env =
    run
      {|void main() {
          int n = 100; double a[n]; int i; double s = 0.0;
          #pragma acc parallel loop reduction(+: s)
          for (i = 0; i < n; i++) { a[i] = 1.0 * i; s += 1.0 * i; }
        }|}
  in
  (match Host_interp.get_scalar env "s" with
  | Host_interp.Vfloat s -> check (Alcotest.float 1e-9) "reduction result" 4950.0 s
  | _ -> Alcotest.fail "s kind");
  let a = View.snapshot_f (Host_interp.find_array env "a") in
  check (Alcotest.float 1e-12) "array written" 99.0 a.(99)

let test_interp_runtime_errors () =
  let fails src =
    match run src with
    | exception (Loc.Error _ | View.Bounds _) -> ()
    | _ -> Alcotest.failf "expected runtime error"
  in
  fails "void main() { int x = 1 / 0; }";
  fails "void main() { double a[3]; a[5] = 1.0; }";
  fails "void main() { double a[0 - 2]; }";
  fails "void f() { } void g() { }" (* no main *)

(* ---------------- Kernel compilation ---------------- *)

let compile_loop ?(params = []) src =
  let p = Parser.parse ~file:"t" src in
  Typecheck.check_program p;
  let loop = List.hd (Loop_info.extract (Option.get (Ast.find_func p "main"))) in
  let classify_site = Coalesce.make loop in
  Kernel_compile.compile ~loop
    ~params:(if params = [] then failwith "params required" else params)
    ~classify:(fun _ idx -> classify_site idx)

let saxpy_src =
  {|void main() { int n = 4; double x[n]; double y[n]; double a; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) { y[i] = y[i] + a * x[i]; } }|}

let test_kernel_compile_runs () =
  let kc =
    compile_loop saxpy_src
      ~params:[ ("n", Ast.Tint); ("x", Ast.Tarray Ast.Edouble); ("y", Ast.Tarray Ast.Edouble); ("a", Ast.Tdouble) ]
  in
  let frame = kc.Kernel_compile.make_frame () in
  let x = [| 1.0; 2.0; 3.0; 4.0 |] and y = [| 10.0; 10.0; 10.0; 10.0 |] in
  List.iter
    (fun (name, slot, _) ->
      match name with
      | "n" -> Frame.set_int frame slot 4
      | "a" -> Frame.set_float frame slot 2.0
      | "x" -> Frame.set_view frame slot (View.of_float_array ~name:"x" x)
      | "y" -> Frame.set_view frame slot (View.of_float_array ~name:"y" y)
      | _ -> ())
    kc.Kernel_compile.params;
  for i = 0 to 3 do
    kc.Kernel_compile.run_iter frame i
  done;
  check (Alcotest.array (Alcotest.float 1e-12)) "saxpy" [| 12.0; 14.0; 16.0; 18.0 |] y;
  (* Cost accounting: per iteration 2 flops (add, mul), coalesced traffic
     2 reads + 1 write of 8 bytes. *)
  let c = kc.Kernel_compile.cost in
  check Alcotest.int "flops" 8 c.Cost.flops;
  check Alcotest.int "coalesced bytes" (4 * 3 * 8) c.Cost.coalesced_bytes;
  check Alcotest.int "no random" 0 c.Cost.random_accesses

let test_kernel_compile_gather_counts_random () =
  let src =
    {|void main() { int n = 4; double x[n]; double y[n]; int idx[n]; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) { y[i] = x[idx[i]]; } }|}
  in
  let kc =
    compile_loop src
      ~params:
        [ ("x", Ast.Tarray Ast.Edouble); ("y", Ast.Tarray Ast.Edouble); ("idx", Ast.Tarray Ast.Eint) ]
  in
  let frame = kc.Kernel_compile.make_frame () in
  List.iter
    (fun (name, slot, _) ->
      match name with
      | "x" -> Frame.set_view frame slot (View.of_float_array ~name:"x" [| 1.0; 2.0; 3.0; 4.0 |])
      | "y" -> Frame.set_view frame slot (View.of_float_array ~name:"y" (Array.make 4 0.0))
      | "idx" -> Frame.set_view frame slot (View.of_int_array ~name:"idx" [| 3; 2; 1; 0 |])
      | _ -> ())
    kc.Kernel_compile.params;
  for i = 0 to 3 do
    kc.Kernel_compile.run_iter frame i
  done;
  let c = kc.Kernel_compile.cost in
  check Alcotest.int "one gather per iteration" 4 c.Cost.random_accesses;
  check Alcotest.int "gather bytes" 32 c.Cost.random_bytes

let test_kernel_compile_rejects () =
  let reject params src =
    match compile_loop ~params src with
    | exception Loc.Error _ -> ()
    | _ -> Alcotest.fail "expected kernel compile error"
  in
  reject
    [ ("a", Ast.Tarray Ast.Edouble) ]
    {|void main() { int n = 4; double a[n]; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) { double t[3]; a[i] = 0.0; } }|};
  reject
    [ ("a", Ast.Tarray Ast.Edouble) ]
    {|void main() { int n = 4; double a[n]; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) { return; } }|}

let test_kernel_control_flow_and_ints () =
  (* while / break / continue / ternary / bit ops / int arrays, all inside
     a kernel body. *)
  let src =
    {|void main() { int n = 8; int out[n]; int v[n]; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) {
  int acc = 0;
  int j = 0;
  while (1) {
    j = j + 1;
    if (j == 2) { continue; }
    acc = acc + j;
    if (j >= 5) { break; }
  }
  int masked = (v[i] & 3) | (i << 2);
  out[i] = (i % 2 == 0) ? acc + masked : acc - masked;
} }|}
  in
  let kc =
    compile_loop src
      ~params:[ ("out", Ast.Tarray Ast.Eint); ("v", Ast.Tarray Ast.Eint) ]
  in
  let frame = kc.Kernel_compile.make_frame () in
  let out = Array.make 8 0 and v = Array.init 8 (fun i -> (i * 5) + 1) in
  List.iter
    (fun (name, slot, _) ->
      match name with
      | "out" -> Frame.set_view frame slot (View.of_int_array ~name:"out" out)
      | "v" -> Frame.set_view frame slot (View.of_int_array ~name:"v" v)
      | _ -> ())
    kc.Kernel_compile.params;
  for i = 0 to 7 do
    kc.Kernel_compile.run_iter frame i
  done;
  (* acc = 1+3+4+5 = 13 (j=2 skipped). masked = (v[i] land 3) lor (i lsl 2). *)
  Array.iteri
    (fun i got ->
      let masked = (v.(i) land 3) lor (i lsl 2) in
      let expected = if i mod 2 = 0 then 13 + masked else 13 - masked in
      check Alcotest.int (Printf.sprintf "out[%d]" i) expected got)
    out

let test_kernel_frame_reuse_between_iterations () =
  (* Locals live in reused slots: every iteration must reinitialize its own
     declarations (no cross-iteration leakage through the declaration). *)
  let src =
    {|void main() { int n = 4; double a[n]; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) { double t = 1.0; t = t + i; a[i] = t; } }|}
  in
  let kc = compile_loop src ~params:[ ("a", Ast.Tarray Ast.Edouble) ] in
  let frame = kc.Kernel_compile.make_frame () in
  let a = Array.make 4 0.0 in
  List.iter
    (fun (name, slot, _) ->
      if name = "a" then Frame.set_view frame slot (View.of_float_array ~name:"a" a))
    kc.Kernel_compile.params;
  for i = 0 to 3 do
    kc.Kernel_compile.run_iter frame i
  done;
  check (Alcotest.array (Alcotest.float 1e-12)) "per-iteration init" [| 1.0; 2.0; 3.0; 4.0 |] a

let test_extract_reduction_patterns () =
  let stmt src =
    let p = Parser.parse ~file:"t" (Printf.sprintf "void main() { double a[4]; double v; int k; %s }" src) in
    let f = Option.get (Ast.find_func p "main") in
    List.nth f.Ast.fbody 3
  in
  let ok op src =
    let idx, contrib = Kernel_compile.extract_reduction op (stmt src) in
    (Pretty.expr_to_string idx, Pretty.expr_to_string contrib)
  in
  check (Alcotest.pair Alcotest.string Alcotest.string) "+=" ("k", "v") (ok Ast.Rplus "a[k] += v;");
  check (Alcotest.pair Alcotest.string Alcotest.string) "a[k]=a[k]+v" ("k", "v")
    (ok Ast.Rplus "a[k] = a[k] + v;");
  check (Alcotest.pair Alcotest.string Alcotest.string) "commuted" ("k", "v")
    (ok Ast.Rplus "a[k] = v + a[k];");
  check (Alcotest.pair Alcotest.string Alcotest.string) "fmax" ("k", "v")
    (ok Ast.Rmax "a[k] = fmax(a[k], v);");
  (match ok Ast.Rplus "a[k] = a[k] * v;" with
  | exception Loc.Error _ -> ()
  | _ -> Alcotest.fail "op mismatch must fail");
  match ok Ast.Rplus "a[k] = a[k + 1] + v;" with
  | exception Loc.Error _ -> ()
  | _ -> Alcotest.fail "different subscript must fail"


(* ---------------- One evaluator: host and kernel agree ---------------- *)

let fails_at ~line ~msg f =
  match f () with
  | exception Loc.Error (loc, m) ->
      check Alcotest.int "error line" line loc.Loc.line;
      check Alcotest.string "error message" msg m
  | _ -> Alcotest.failf "expected a located error: %s" msg

let bind_all frame (kc : Kernel_compile.t) bindings =
  List.iter
    (fun (name, slot, _) ->
      match List.assoc_opt name bindings with
      | Some (`F f) -> Frame.set_float frame slot f
      | Some (`I n) -> Frame.set_int frame slot n
      | Some (`Vf a) -> Frame.set_view frame slot (View.of_float_array ~name a)
      | Some (`Vi a) -> Frame.set_view frame slot (View.of_int_array ~name a)
      | None -> ())
    kc.Kernel_compile.params

let test_kernel_double_truthiness () =
  (* C truthiness: 0.5 is true. Every condition form must agree. *)
  let src =
    {|void main() { int n = 4; double a[n]; double h = 0.5; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) {
  a[i] = 1.0;
  if (h) { a[i] = 2.0; }
  if (h && 1) { a[i] = a[i] + 10.0; }
  if (0 || h) { a[i] = a[i] + 100.0; }
  if (!h) { a[i] = 0.0; }
  a[i] = a[i] + (h ? 1000.0 : 0.0);
} }|}
  in
  let kc = compile_loop src ~params:[ ("a", Ast.Tarray Ast.Edouble); ("h", Ast.Tdouble) ] in
  let frame = kc.Kernel_compile.make_frame () in
  let a = Array.make 4 0.0 in
  bind_all frame kc [ ("a", `Vf a); ("h", `F 0.5) ];
  for i = 0 to 3 do
    kc.Kernel_compile.run_iter frame i
  done;
  check (Alcotest.array (Alcotest.float 0.0)) "0.5 is true" (Array.make 4 1112.0) a;
  (* The counters are the ones the truncating conditions charged: per
     iteration 4 ifs + 1 ternary + 1 && + 1 || (int ops), one ! on a
     double and three additions (flops); 5 writes and 3 reads of 8 bytes. *)
  let c = kc.Kernel_compile.cost in
  check Alcotest.int "int ops" (4 * 7) c.Cost.int_ops;
  check Alcotest.int "flops" (4 * 4) c.Cost.flops;
  check Alcotest.int "bytes" (4 * 8 * 8) c.Cost.coalesced_bytes;
  (* The same program through the multi-GPU runtime matches the oracle. *)
  let prog = Parser.parse ~file:"t.c" src in
  let machine = Mgacc.Machine.desktop () in
  let env, _ = Mgacc.run_acc ~config:(Mgacc.Rt_config.make ~num_gpus:2 machine) ~machine prog in
  check (Alcotest.array (Alcotest.float 0.0)) "runtime vs oracle"
    (Mgacc.float_results (Host_interp.run_program prog) "a")
    (Mgacc.float_results env "a")

let test_kernel_int_division_by_zero () =
  let kernel op =
    Printf.sprintf
      {|void main() { int n = 4; int a[n]; int z = 0; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) {
  %s
} }|}
      op
  in
  let run_kernel op =
    let kc = compile_loop (kernel op) ~params:[ ("a", Ast.Tarray Ast.Eint); ("z", Ast.Tint) ] in
    let frame = kc.Kernel_compile.make_frame () in
    bind_all frame kc [ ("a", `Vi (Array.make 4 1)); ("z", `I 0) ];
    kc.Kernel_compile.run_iter frame 0
  in
  fails_at ~line:4 ~msg:"integer division by zero" (fun () -> run_kernel "a[i] = i / z;");
  fails_at ~line:4 ~msg:"integer modulo by zero" (fun () -> run_kernel "a[i] = i % z;");
  fails_at ~line:4 ~msg:"integer division by zero" (fun () -> run_kernel "a[i] /= z;");
  (* Through the runtime the error keeps its location: the CLI prints it
     and exits 1. *)
  let machine = Mgacc.Machine.desktop () in
  fails_at ~line:4 ~msg:"integer division by zero" (fun () ->
      Mgacc.run_acc ~machine (Parser.parse ~file:"t.c" (kernel "a[i] = i / z;")))

let recording_hooks log =
  {
    Host_interp.sequential_hooks with
    on_parallel_loop =
      (fun env loop ->
        log := (loop.Loop_info.loop_id, loop.Loop_info.loop_var) :: !log;
        Host_interp.run_loop_sequentially env loop);
  }

let test_loop_ids_follow_execution () =
  let src =
    {|void f(double b[], int n) { int j;
#pragma acc parallel loop
for (j = 0; j < n; j++) { b[j] = b[j] + 1.0; } }
void main() { int n = 4; double a[n]; int i; int k;
for (k = 0; k < 2; k++) {
  if (k == 1) {
#pragma acc parallel loop
for (i = 0; i < n; i++) { a[i] = a[i] * 2.0; }
  }
#pragma acc parallel loop
for (i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
}
f(a, n); f(a, n); }|}
  in
  let log = ref [] in
  let env = Host_interp.run_program ~hooks:(recording_hooks log) (Parser.parse ~file:"t" src) in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "ids in order of first execution"
    [ (0, "i"); (1, "i"); (0, "i"); (2, "j"); (2, "j") ]
    (List.rev !log);
  check (Alcotest.float 0.0) "a" 5.0 (View.snapshot_f (Host_interp.find_array env "a")).(0)

let test_hook_in_callee_sees_callee_names () =
  let src =
    {|void g(double b[], int m) { int j; double s = 0.0;
#pragma acc data copy(b[0:m])
{
#pragma acc parallel loop
for (j = 0; j < m; j++) { b[j] = 3.0; }
}
}
void main() { int n = 5; double a[n]; g(a, n); }|}
  in
  let seen = ref [] in
  let probe env =
    let has name = Host_interp.find_array_opt env name <> None in
    seen :=
      (has "b", has "a", Host_interp.get_scalar env "m", Host_interp.get_scalar env "s") :: !seen
  in
  let hooks =
    {
      Host_interp.sequential_hooks with
      on_data_enter = (fun env _ -> probe env);
      on_parallel_loop =
        (fun env loop ->
          probe env;
          Host_interp.set_scalar env "s" (Host_interp.Vfloat 1.5);
          Host_interp.run_loop_sequentially env loop);
    }
  in
  let env = Host_interp.run_program ~hooks (Parser.parse ~file:"t" src) in
  let inside_g = (true, false, Host_interp.Vint 5, Host_interp.Vfloat 0.0) in
  if List.rev !seen <> [ inside_g; inside_g ] then
    Alcotest.fail "hooks inside g must see g's names only";
  check (Alcotest.float 0.0) "callee wrote the caller's array" 3.0
    (View.snapshot_f (Host_interp.find_array env "a")).(4)

let test_break_escaping_parallel_loop () =
  let src stmt =
    Printf.sprintf
      {|void main() { int n = 4; double a[n]; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) { if (i == 2) { %s } a[i] = 1.0; } }|}
      stmt
  in
  let msg = "break/continue escaping a parallel loop iteration" in
  fails_at ~line:3 ~msg (fun () -> run (src "break;"));
  fails_at ~line:3 ~msg (fun () -> run (src "continue;"));
  let kc = compile_loop (src "break;") ~params:[ ("a", Ast.Tarray Ast.Edouble) ] in
  let frame = kc.Kernel_compile.make_frame () in
  bind_all frame kc [ ("a", `Vf (Array.make 4 0.0)) ];
  fails_at ~line:3 ~msg (fun () -> kc.Kernel_compile.run_iter frame 2)

let test_host_errors_wait_for_execution () =
  (* A host statement that cannot compile fails only when it runs, as it
     would under a tree-walker. *)
  let src flag =
    Printf.sprintf
      {|void v() { }
void main() { int x = 0; int go = %d;
  if (go) { x = v() ? 1 : 2; }
}|}
      flag
  in
  ignore (run (src 0));
  match run (src 1) with
  | exception Loc.Error (loc, _) -> check Alcotest.int "located" 3 loc.Loc.line
  | _ -> Alcotest.fail "expected the executed statement to fail"

(* ---------------- The unboxed evaluator ---------------- *)

module Darray = Mgacc_runtime.Darray
module Launch = Mgacc_runtime.Launch
module Memory = Mgacc_gpusim.Memory

let cost_fields (c : Cost.t) =
  [ c.Cost.flops; c.Cost.int_ops; c.Cost.coalesced_bytes; c.Cost.broadcast_bytes;
    c.Cost.random_accesses; c.Cost.random_bytes ]

let test_kernel_allocation_gate () =
  (* The kmeans assignment kernel: doubles stay in the frame, so running it
     allocates nothing per iteration. *)
  let src =
    {|void main() { int n = 10000; int f = 4; int k = 3; double x[n*f]; double centers[k*f];
  int membership[n]; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) {
  double best = 1.0e30; int bc = 0; int c; int j2;
  for (c = 0; c < k; c++) {
    double dist = 0.0;
    for (j2 = 0; j2 < f; j2++) {
      double d = x[i*f + j2] - centers[c*f + j2];
      dist = dist + d*d;
    }
    if (dist < best) { best = dist; bc = c; }
  }
  if (bc != membership[i]) { membership[i] = bc; }
} }|}
  in
  let n = 10000 and f = 4 and k = 3 in
  let kc =
    compile_loop src
      ~params:
        [ ("n", Ast.Tint); ("f", Ast.Tint); ("k", Ast.Tint); ("x", Ast.Tarray Ast.Edouble);
          ("centers", Ast.Tarray Ast.Edouble); ("membership", Ast.Tarray Ast.Eint) ]
  in
  let x = Array.init (n * f) (fun i -> float_of_int ((i * 7919) mod 101)) in
  let centers = Array.sub x 0 (k * f) and membership = Array.make n (-1) in
  let frame = kc.Kernel_compile.make_frame () in
  bind_all frame kc
    [ ("n", `I n); ("f", `I f); ("k", `I k); ("x", `Vf x); ("centers", `Vf centers);
      ("membership", `Vi membership) ];
  kc.Kernel_compile.run_iter frame 0;
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    kc.Kernel_compile.run_iter frame i
  done;
  let words = Gc.minor_words () -. before in
  if words > float_of_int n then
    Alcotest.failf "%.0f minor words over %d iterations (at most 1 per iteration)" words n;
  let nearest i =
    let dist c =
      List.fold_left ( +. ) 0.0
        (List.init f (fun j -> (x.((i * f) + j) -. centers.((c * f) + j)) ** 2.0))
    in
    List.fold_left (fun b c -> if dist c < dist b then c else b) 0 [ 1; 2 ]
  in
  check Alcotest.int "nearest center" (nearest 4321) membership.(4321)

(* Views whose direct ranges are empty take the checked closures for every
   access: the reference the direct path must match bit for bit. *)
let checked (v : View.t) = { v with View.read_lo = 0; read_hi = 0; write_lo = 0; write_hi = 0 }

(* [run strip] observes one run with every view passed through [strip]. *)
let direct_equals_checked what run =
  if run Fun.id <> run checked then Alcotest.failf "%s: direct and checked views differ" what

let bits = Array.map Int64.bits_of_float

let edge_src =
  {|void main() { int n = 16; double a[n]; double b[n]; int c[n]; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) {
  double l = (i > 0) ? b[i-1] : 0.0;
  double r = (i < n - 1) ? b[i+1] : 0.0;
  a[i] = l + 0.5 * r;
  a[i] += b[i];
  c[i] = c[i] * 2 + i;
  c[i] -= 1;
  if (i % 8 == 7 && i + 1 < n) { a[i+1] = -1.0; c[i+1] = -1; }
} }|}

(* Reads two past the iteration: out of bounds at the end of a host array,
   out of the window at the end of a distributed part. *)
let past_src =
  {|void main() { int n = 16; double a[n]; double b[n]; int c[n]; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) { a[i] = b[i + 2]; } }|}

let edge_params =
  [ ("n", Ast.Tint); ("a", Ast.Tarray Ast.Edouble); ("b", Ast.Tarray Ast.Edouble);
    ("c", Ast.Tarray Ast.Eint) ]

(* Run [src] over [lo, hi) with the views [view] builds from the kernel's
   cost record: the cost's fields, or the error that stopped the run. *)
let run_edge ~src ~view ~lo ~hi =
  let kc = compile_loop src ~params:edge_params in
  let frame = kc.Kernel_compile.make_frame () in
  List.iter
    (fun (name, slot, _) ->
      if name = "n" then Frame.set_int frame slot 16
      else Frame.set_view frame slot (view kc.Kernel_compile.cost name))
    kc.Kernel_compile.params;
  match
    for i = lo to hi - 1 do
      kc.Kernel_compile.run_iter frame i
    done
  with
  | () -> Ok (cost_fields kc.Kernel_compile.cost)
  | exception View.Bounds { name; index; _ } -> Error (name, index, "bounds", 0)
  | exception Launch.Window_violation { array; index; what; loc; _ } ->
      Error (array, index, what, loc.Loc.line)

let edge_data () =
  ( Array.init 16 (fun i -> float_of_int i /. 3.0),
    Array.init 16 (fun i -> float_of_int (i * i)),
    Array.init 16 (fun i -> (3 * i) - 7) )

let test_direct_equals_checked_host () =
  let run src strip =
    let a, b, c = edge_data () in
    let views =
      [ ("a", View.of_float_array ~name:"a" a); ("b", View.of_float_array ~name:"b" b);
        ("c", View.of_int_array ~name:"c" c) ]
    in
    let outcome = run_edge ~src ~view:(fun _ name -> strip (List.assoc name views)) ~lo:0 ~hi:16 in
    (outcome, bits a, c)
  in
  direct_equals_checked "host views" (run edge_src);
  direct_equals_checked "host views, out of bounds" (run past_src);
  match run past_src Fun.id with
  | Error ("b", 16, "bounds", _), _, _ -> ()
  | _ -> Alcotest.fail "expected View.Bounds on b[16]"

let two_gpus () = Mgacc_runtime.Rt_config.make ~num_gpus:2 (Mgacc.Machine.desktop ())

let edge_darrays cfg =
  let a, b, c = edge_data () in
  ( Darray.create cfg ~name:"a" ~host:(View.of_float_array ~name:"a" a),
    Darray.create cfg ~name:"b" ~host:(View.of_float_array ~name:"b" b),
    Darray.create cfg ~name:"c" ~host:(View.of_int_array ~name:"c" c) )

let test_direct_equals_checked_replicated () =
  let run strip =
    let cfg = two_gpus () in
    let a, b, c = edge_darrays cfg in
    List.iter (fun da -> ignore (Darray.ensure_replicated cfg da ~dirty_tracking:true)) [ a; b; c ];
    let dirty da = (Darray.replica_of da).Darray.dirty.(0) in
    let view cost name =
      let da = List.assoc name [ ("a", a); ("b", b); ("c", c) ] in
      strip (Launch.replicated_view da ~gpu:0 ~dirty:(dirty da) ~cost)
    in
    let outcome = run_edge ~src:edge_src ~view ~lo:0 ~hi:16 in
    let runs da = Mgacc_runtime.Dirty.dirty_runs (Option.get (dirty da)) in
    ( outcome,
      bits (Memory.float_data (Darray.buf_for a ~gpu:0)),
      Memory.int_data (Darray.buf_for c ~gpu:0),
      Mgacc_util.Interval.Set.to_list (runs a),
      Mgacc_util.Interval.Set.to_list (runs c) )
  in
  direct_equals_checked "replicated views with dirty tracking" run;
  match run Fun.id with
  | Ok cost, _, _, _ :: _, _ :: _ ->
      check Alcotest.bool "two int ops per marked write" true (List.nth cost 1 > 0)
  | _ -> Alcotest.fail "expected marked dirty runs"

let test_direct_equals_checked_distributed () =
  let loc = { Loc.dummy with Loc.line = 42 } in
  let run src ~miss_check strip =
    let cfg = two_gpus () in
    let a, b, c = edge_darrays cfg in
    let ranges = Mgacc_runtime.Task_map.split ~lower:0 ~upper:16 ~parts:2 in
    let spec halo = { Darray.stride = 1; left = halo; right = halo; tile = None } in
    ignore (Darray.ensure_distributed cfg a ~spec:(spec 0) ~ranges);
    ignore (Darray.ensure_distributed cfg b ~spec:(spec 1) ~ranges);
    ignore (Darray.ensure_distributed cfg c ~spec:(spec 0) ~ranges);
    (* GPU 0 owns [0, 8) and reads b over [0, 9); GPU 1 owns [8, 16) and
       reads b over [7, 16): the edges, and writes a[8], c[8] from GPU 0. *)
    List.map
      (fun gpu ->
        let view cost name =
          let da = List.assoc name [ ("a", a); ("b", b); ("c", c) ] in
          strip (Launch.distributed_view da ~gpu ~miss_check ~cost ~loc)
        in
        let r = ranges.(gpu) in
        let outcome = run_edge ~src ~view ~lo:r.Mgacc_runtime.Task_map.start_ ~hi:r.stop_ in
        let part da = Darray.part_for da ~gpu in
        let misses da = Mgacc_runtime.Miss_buffer.entries (part da).Darray.miss in
        ( outcome,
          bits (Memory.float_data (part a).Darray.buf),
          Memory.int_data (part c).Darray.buf,
          misses a,
          misses c ))
      [ 0; 1 ]
  in
  direct_equals_checked "miss-checked writes" (run edge_src ~miss_check:true);
  direct_equals_checked "eliminated miss checks" (run edge_src ~miss_check:false);
  direct_equals_checked "read past the window" (run past_src ~miss_check:true);
  (match run edge_src ~miss_check:true Fun.id with
  | (Ok _, _, _, [ (8, _) ], [ (8, _) ]) :: _ -> ()
  | _ -> Alcotest.fail "checked writes outside the owned block must be buffered");
  (match run edge_src ~miss_check:false Fun.id with
  | (Error ("a", 8, _, 42), _, _, _, _) :: _ -> ()
  | _ -> Alcotest.fail "an unchecked write outside the owned block must be a located violation");
  match run past_src ~miss_check:true Fun.id with
  | (Error ("b", 9, "read outside window", 42), _, _, _, _) :: _ -> ()
  | _ -> Alcotest.fail "a read past the window must be a located violation"

(* Counted loops run natively; every case must keep the arrays, final
   scalars and counters the general loop gives (pinned from it). *)
let counted_cases =
  [
    ("zero trips", "for (j = 5; j < m; j++) { s = s + j; }");
    ("trips follow the iteration", "for (j = 0; j < i; j++) { s = s + j; }");
    ("literal bound", "for (j = 0; j < 4; j++) { s = s + j * j; }");
    ("body assigns the bound", "for (j = 0; j < lim; j++) { lim = lim - 1; s = s + 1; }");
    ("body assigns the variable", "for (j = 0; j < 8; j++) { j = j + 1; s = s + j; }");
    ( "break and continue",
      "for (j = 0; j < 10; j++) { if (j == 3) { continue; } if (j == 6) { break; } s = s + j; }" );
    ("less or equal", "for (j = 0; j <= m; j++) { s = s + j; }");
    ("decrementing", "for (j = m; j > 0; j--) { s = s + j; }");
    ( "break in a nested loop",
      "for (j = 0; j < m; j++) { for (q = 0; q < 10; q++) { if (q == j) { break; } s = s + q; } }" );
    ("double body", "for (j = 0; j < m; j++) { d = d + 0.5 * j; } s = (int)(d * 10.0);");
  ]

let run_counted body =
  let src =
    Printf.sprintf
      {|void main() { int n = 3; int m = 3; int out[n]; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) {
  int j = -1; int q; int s = 0; int lim = 4; double d = 0.25;
  %s
  out[i] = j * 1000 + s * 10 + lim;
} }|}
      body
  in
  let kc = compile_loop src ~params:[ ("n", Ast.Tint); ("m", Ast.Tint); ("out", Ast.Tarray Ast.Eint) ] in
  let frame = kc.Kernel_compile.make_frame () in
  let out = Array.make 3 0 in
  bind_all frame kc [ ("n", `I 3); ("m", `I 3); ("out", `Vi out) ];
  for i = 0 to 2 do
    kc.Kernel_compile.run_iter frame i
  done;
  (out, cost_fields kc.Kernel_compile.cost)

let counted_expected =
  [
    ([| 5004; 5004; 5004 |], [ 0; 21; 12; 0; 0; 0 ]); (* zero trips *)
    ([| 4; 1004; 2014 |], [ 0; 33; 12; 0; 0; 0 ]); (* trips follow the iteration *)
    ([| 4144; 4144; 4144 |], [ 0; 81; 12; 0; 0; 0 ]); (* literal bound *)
    ([| 2022; 2022; 2022 |], [ 0; 51; 12; 0; 0; 0 ]); (* body assigns the bound *)
    ([| 8164; 8164; 8164 |], [ 0; 81; 12; 0; 0; 0 ]); (* body assigns the variable *)
    ([| 6124; 6124; 6124 |], [ 0; 168; 12; 0; 0; 0 ]); (* break and continue *)
    ([| 4064; 4064; 4064 |], [ 0; 69; 12; 0; 0; 0 ]); (* less or equal *)
    ([| 64; 64; 64 |], [ 0; 57; 12; 0; 0; 0 ]); (* decrementing *)
    ([| 3014; 3014; 3014 |], [ 0; 138; 12; 0; 0; 0 ]); (* break in a nested loop *)
    ([| 3174; 3174; 3174 |], [ 21; 51; 12; 0; 0; 0 ]); (* double body *)
  ]

let test_counted_loops () =
  List.iter2
    (fun (name, body) (out, cost) ->
      let out', cost' = run_counted body in
      check (Alcotest.array Alcotest.int) (name ^ ": results") out out';
      check (Alcotest.list Alcotest.int) (name ^ ": cost") cost cost')
    counted_cases counted_expected

let test_counted_host_loop_with_parallel_site () =
  let src =
    {|void main() { int n = 4; double a[n]; int i; int it; int count = 0;
for (it = 0; it < 3; it++) {
  count = count + 1;
#pragma acc parallel loop
  for (i = 0; i < n; i++) { a[i] = a[i] + it; }
}
a[0] = a[0] + 100 * it + count; }|}
  in
  let log = ref [] in
  let env = Host_interp.run_program ~hooks:(recording_hooks log) (Parser.parse ~file:"t" src) in
  check Alcotest.int "one hook per trip" 3 (List.length !log);
  check (Alcotest.array (Alcotest.float 0.0)) "arrays" [| 306.0; 3.0; 3.0; 3.0 |]
    (View.snapshot_f (Host_interp.find_array env "a"));
  check Alcotest.bool "final scalars" true
    (Host_interp.get_scalar env "it" = Host_interp.Vint 3
    && Host_interp.get_scalar env "count" = Host_interp.Vint 3)

let test_kernel_user_call_located () =
  let src =
    {|double sq(double v) { return v * v; }
void main() { int n = 4; double a[n]; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) { a[i] = sq(i); } }|}
  in
  let msg = "user function calls are not allowed in kernels: sq" in
  fails_at ~line:4 ~msg (fun () -> compile_loop src ~params:[ ("a", Ast.Tarray Ast.Edouble) ]);
  let machine = Mgacc.Machine.desktop () in
  fails_at ~line:4 ~msg (fun () -> Mgacc.run_acc ~machine (Parser.parse ~file:"t.c" src))

let test_eval_keeps_live_slots () =
  (* An expression a hook evaluates gets temporaries and constants; they
     must not take the slots of code compiled after the site (here [later]
     and its constant 7.0). *)
  let src =
    {|void main() { int n = 4; double a[n]; double h = 1.5; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) { a[i] = h; }
double later = 7.0; int k = 9; a[0] = later + k; }|}
  in
  let seen = ref [] in
  let hooks =
    {
      Host_interp.sequential_hooks with
      on_parallel_loop =
        (fun env loop ->
          let e = Parser.parse_expr ~file:"e" in
          let f = Host_interp.eval_float env (e "h * 2.0 + n / 2") in
          seen := (f, Host_interp.eval_int env (e "n * 3 + 1")) :: !seen;
          Host_interp.run_loop_sequentially env loop);
    }
  in
  let env = Host_interp.run_program ~hooks (Parser.parse ~file:"t" src) in
  check Alcotest.(list (pair (float 0.0) int)) "evaluated" [ (5.0, 13) ] !seen;
  check (Alcotest.float 0.0) "later variables intact" 16.0
    (View.snapshot_f (Host_interp.find_array env "a")).(0)

let suite =
  [
    tc "view: float basics" test_view_float;
    tc "view: int and reduction operators" test_view_int_and_redops;
    tc "interp: arithmetic and control flow" test_interp_arith_and_control;
    tc "interp: functions and recursion" test_interp_functions;
    tc "interp: builtins and casts" test_interp_builtins_and_casts;
    tc "interp: sequential parallel loop + reduction" test_interp_sequential_parallel_loop;
    tc "interp: runtime errors" test_interp_runtime_errors;
    tc "kernel: compiles and computes saxpy" test_kernel_compile_runs;
    tc "kernel: gathers count as random" test_kernel_compile_gather_counts_random;
    tc "kernel: rejects invalid bodies" test_kernel_compile_rejects;
    tc "kernel: control flow, ints, bit ops" test_kernel_control_flow_and_ints;
    tc "kernel: per-iteration local initialization" test_kernel_frame_reuse_between_iterations;
    tc "kernel: reduction statement extraction" test_extract_reduction_patterns;
    tc "kernel: doubles are true when non-zero" test_kernel_double_truthiness;
    tc "kernel: integer division by zero is located" test_kernel_int_division_by_zero;
    tc "host: loop ids follow first execution" test_loop_ids_follow_execution;
    tc "host: hooks in a callee see its names" test_hook_in_callee_sees_callee_names;
    tc "host: break/continue escaping a parallel loop" test_break_escaping_parallel_loop;
    tc "host: compile errors wait for execution" test_host_errors_wait_for_execution;
    tc "kernel: no allocation per iteration" test_kernel_allocation_gate;
    tc "kernel: direct = checked, host views" test_direct_equals_checked_host;
    tc "kernel: direct = checked, replicated views" test_direct_equals_checked_replicated;
    tc "kernel: direct = checked, distributed views" test_direct_equals_checked_distributed;
    tc "kernel: counted loops keep results and cost" test_counted_loops;
    tc "host: counted loop around a parallel site" test_counted_host_loop_with_parallel_site;
    tc "kernel: user calls are located errors" test_kernel_user_call_located;
    tc "host: eval keeps the live frame's slots" test_eval_keeps_live_slots;
  ]
