(** Execution frames with compile-time slot assignment.

    The closure compiler resolves every variable to a fixed slot in a typed
    bank (ints, floats, views) at compile time, so executing code involves
    no name lookups. A kernel gets one frame per launch; host code gets one
    per function call. A {!Layout.t} is threaded through compilation
    to assign slots lexically; {!create} then instantiates a frame of the
    final size. *)

open Mgacc_minic

type slot = Int_slot of int | Float_slot of int | View_slot of int

type t = { ints : int array; floats : float array; views : View.t option array }

module Layout : sig
  type t

  val create : unit -> t

  val scoped : t -> (unit -> 'a) -> 'a
  (** [scoped t f] runs [f] with a fresh innermost scope, left afterwards. *)

  val declare : ?slot:slot -> t -> Loc.t -> string -> Ast.typ -> slot
  (** Bind the name to [slot] (from {!reserve}), or else to a fresh slot;
      raises {!Loc.Error} on redeclaration in the same scope or on a [void]
      declaration. *)

  val reserve : t -> Ast.typ -> slot
  (** A fresh slot no name resolves to (a function's return value). *)

  val const_int : t -> int -> int
  (** A fresh int slot every frame of the layout starts holding [n]. *)

  val const_float : t -> float -> int
  (** A fresh float slot every frame of the layout starts holding [v]. *)

  val lookup : t -> string -> (slot * Ast.typ) option
  (** Innermost-scope-first lookup. *)

  val snapshot : t -> t
  (** The names visible now, frozen into a one-scope layout: later
      declarations in [t] do not show through it. *)

  val beyond : t -> ints:int -> floats:int -> t
  (** A snapshot whose fresh slots start at or past the given bank sizes,
      so code compiled against it can run on a copy of a live frame of
      those sizes without touching the live frame's slots. *)
end

val create : Layout.t -> t
(** A frame sized for everything the layout ever declared: zeroed, apart
    from its constant slots. *)

val set_view : t -> slot -> View.t -> unit
val get_view : t -> int -> View.t
(** Raises [Invalid_argument] if the slot was never bound. *)

val set_int : t -> slot -> int -> unit
val set_float : t -> slot -> float -> unit
val get_int : t -> slot -> int
val get_float : t -> slot -> float
