(** Running host programs under OpenACC hooks.

    The host program (allocation, initialization, iteration control) runs
    through {!Kernel_compile}'s closure compiler, the one evaluator of
    mini-C; when execution reaches an OpenACC construct the corresponding
    hook fires. An {!env} is the live frame of the function at the hook site
    plus the names visible there, resolved to slots when the program is
    compiled. Different runners plug in different hooks:
    the sequential reference runner executes annotated loops in place, the
    OpenMP runner times them with the CPU model, and the multi-GPU OpenACC
    runtime distributes them over simulated devices. *)

open Mgacc_minic

type value = Vint of int | Vfloat of float

type env

type hooks = {
  on_parallel_loop : env -> Mgacc_analysis.Loop_info.t -> unit;
      (** fired instead of executing the annotated loop *)
  on_data_enter : env -> Ast.clause list -> unit;
  on_data_exit : env -> Ast.clause list -> unit;
  on_update_host : env -> Ast.subarray list -> unit;
  on_update_device : env -> Ast.subarray list -> unit;
}

val sequential_hooks : hooks
(** Ignore data directives; execute parallel loops sequentially in the host
    environment (the semantic reference). *)

val run_program : ?hooks:hooks -> Ast.program -> env
(** Typecheck and execute [main] (which must exist and take no
    parameters). Returns the final environment of the program's global
    interpretation (the [main] frame), for inspecting results. Loop ids
    are assigned in order of first execution. *)

val run_loop_sequentially : env -> Mgacc_analysis.Loop_info.t -> unit
(** Execute a parallel loop's iterations in order in the host environment
    (used by {!sequential_hooks} and as the fallback semantics). The loop
    variable is a fresh int; break/continue escaping an iteration is a
    located error. Only valid from [on_parallel_loop], with the loop the
    hook was given; raises [Invalid_argument] otherwise. *)

(** {1 Environment access (for hooks and tests)} *)

val eval_int : env -> Ast.expr -> int
val eval_float : env -> Ast.expr -> float
val find_array : env -> string -> View.t
(** Raises [Not_found] if the name is not a live array. *)

val find_array_opt : env -> string -> View.t option
val get_scalar : env -> string -> value
val set_scalar : env -> string -> value -> unit
val program_of : env -> Ast.program
