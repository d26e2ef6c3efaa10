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
  ]
