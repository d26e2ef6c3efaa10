(** Builtin math functions callable from mini-C (host code and kernels).

    Double builtins mirror the C math library names the benchmark sources
    use; integer builtins cover the index arithmetic helpers. The [flops]
    figure is the cost charged per call by the timing model (transcendental
    functions cost more than one FLOP on both CPUs and GPUs). Each entry
    carries its OCaml implementation, so a compiler resolves a call site
    once and applies the function directly. *)

type fn =
  | F1 of (float -> float)
  | F2 of (float -> float -> float)
  | I1 of (int -> int)
  | I2 of (int -> int -> int)

type t = {
  name : string;
  arity : int;
  result : Ast.typ;  (** [Tint] or [Tdouble]; the arguments have the same type *)
  flops : int;  (** arithmetic cost charged per call *)
  fn : fn;
}

val find : string -> t option
val all : t list
val is_builtin : string -> bool

val apply_double : string -> float list -> float
(** Evaluate a double builtin through the table. Raises [Invalid_argument]
    on unknown name or arity mismatch. *)

val apply_int : string -> int list -> int
