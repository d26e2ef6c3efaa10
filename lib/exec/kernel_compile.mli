(** Closure compilation of mini-C: the one evaluator.

    Code is compiled once into OCaml closures over a slotted {!Frame.t};
    running it is then just closure application with no name resolution.
    Doubles move between slots of the frame's float bank, not as boxed
    values (docs/PERF.md, "Kernel evaluator", lists the exceptions).

    {b Kernel mode} ({!compile}) compiles a parallel loop's body. The same
    compiled body serves every execution target — host OpenMP simulation,
    single-GPU CUDA baseline, and each GPU partition of the multi-GPU
    runtime — differing only in the views bound into the frame. While
    executing, the closures bump a {!Mgacc_gpusim.Cost.t}: arithmetic by
    operator type, and array traffic by the coalescing mode assigned to each
    syntactic access site by the [classify] callback (this is where the
    data-layout transformation changes the accounting). Restrictions
    enforced here (with located errors): no user function calls, no array
    declarations, no [return], and no data directives inside a kernel body.

    {b Host mode} ({!run_main}) compiles whole functions: user calls (a
    fresh frame per call, scalars by value, arrays by view), [return],
    array declarations, and OpenACC directives, which compile to call-outs
    to {!hooks}. Host code is never charged to the model. A host statement
    that fails to compile raises its located error only when it executes.

    Both modes test conditions the C way (a double is true when non-zero)
    and raise {!Loc.Error} on integer division or modulo by zero. *)

open Mgacc_minic

type t = {
  run_iter : Frame.t -> int -> unit;  (** execute one iteration at index i *)
  make_frame : unit -> Frame.t;
  params : (string * Frame.slot * Ast.typ) list;
      (** parameter binding sites, in the order given to {!compile} *)
  cost : Mgacc_gpusim.Cost.t;  (** the live counter the closures bump *)
}

val compile :
  loop:Mgacc_analysis.Loop_info.t ->
  params:(string * Ast.typ) list ->
  classify:(string -> Ast.expr -> Mgacc_analysis.Coalesce.mode) ->
  t
(** [params] lists the kernel's free variables (loop-uniform scalars and
    arrays) with their host types; [classify array subscript] chooses the
    coalescing mode charged for that access site. *)

val extract_reduction :
  Ast.redop -> Ast.stmt -> Ast.expr * Ast.expr
(** [extract_reduction op stmt] decomposes a [reductiontoarray]-annotated
    assignment into (destination subscript, contribution expression),
    checking the statement really is an [op]-reduction (e.g.
    [a\[k\] += v], [a\[k\] = a\[k\] + v], [a\[k\] = fmax(a\[k\], v)]).
    Raises {!Loc.Error} otherwise. *)

(** {1 Host mode} *)

type host
(** Per-program state: the hooks, compiled functions, and loop ids. *)

type env = {
  host : host;
  frame : Frame.t;  (** the live frame of the function at the site *)
  scope : Frame.Layout.t;  (** the names visible at the site, as slots of [frame] *)
  seq : (Loc.t * (Frame.t -> unit)) option;
      (** at a parallel-loop site: the loop's location, and its iterations
          run in order on [frame] *)
}

type hooks = {
  on_parallel_loop : env -> Mgacc_analysis.Loop_info.t -> unit;
  on_data_enter : env -> Ast.clause list -> unit;
  on_data_exit : env -> Ast.clause list -> unit;
  on_update_host : env -> Ast.subarray list -> unit;
  on_update_device : env -> Ast.subarray list -> unit;
}

val run_main : hooks -> Ast.program -> Ast.func -> env
(** Compile and run [main] of a typechecked program. Loop ids are assigned
    in order of first execution. Returns [main]'s frame with its top-level
    names. *)

val eval_int : env -> Ast.expr -> int
val eval_float : env -> Ast.expr -> float
val program_of : env -> Ast.program
