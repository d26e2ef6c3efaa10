(** Array views: the storage interface kernels and host code execute
    against.

    A view hides where an array actually lives. A host array wraps an OCaml
    array directly; the multi-GPU runtime builds views that translate
    logical indices into a device partition, mark dirty bits on writes,
    buffer write misses, or accumulate into reduction partials. The
    compiled kernel code is the same either way. *)

open Mgacc_minic

type t = {
  name : string;
  elem : Ast.elem_ty;
  length : int;  (** logical element count *)
  fdata : float array;  (** a double view's buffer; empty for an int view *)
  idata : int array;  (** an int view's buffer; empty for a double view *)
  base : int;  (** logical index [i] lives at buffer index [i - base] *)
  read_lo : int;
  read_hi : int;
      (** logical indices in [\[read_lo, read_hi)] may be read straight from
          the buffer; any other index goes through [get_f]/[get_i] *)
  write_lo : int;
  write_hi : int;
      (** logical indices in [\[write_lo, write_hi)] may be written straight
          into the buffer, followed by [wrote]; any other index goes through
          [set_f]/[set_i] *)
  wrote : (int -> unit) option;
      (** instrumentation run after a direct write (dirty bits, cost) *)
  get_f : int -> float;
  set_f : int -> float -> unit;
  get_i : int -> int;
  set_i : int -> int -> unit;
  reduce_f : Ast.redop -> int -> float -> unit;
      (** accumulate into a reduction destination; only reduction views
          implement this *)
  reduce_i : Ast.redop -> int -> int -> unit;
}
(** The closures are the checked path (bounds, windows, write misses); a
    direct range only covers indices where the closure would just access
    the buffer at [i - base] (and, for a write, run [wrote]). *)

exception Bounds of { name : string; index : int; length : int }
(** Raised by the host-array accessors on out-of-range logical indices. *)

val make :
  name:string ->
  elem:Ast.elem_ty ->
  length:int ->
  ?fdata:float array ->
  ?idata:int array ->
  ?base:int ->
  ?read:int * int ->
  ?write:int * int ->
  ?wrote:(int -> unit) ->
  ?get_f:(int -> float) ->
  ?set_f:(int -> float -> unit) ->
  ?get_i:(int -> int) ->
  ?set_i:(int -> int -> unit) ->
  ?reduce_f:(Ast.redop -> int -> float -> unit) ->
  ?reduce_i:(Ast.redop -> int -> int -> unit) ->
  unit ->
  t
(** A view; ranges default to empty, accessors of the other element type
    and reductions default to raising [Invalid_argument]. Raises
    [Invalid_argument] if a non-empty direct range leaves the buffer. *)

val of_float_array : name:string -> float array -> t
(** Bounds-checked direct view over (and aliasing) a host array;
    [reduce_f] applies the operator in place (the host/OpenMP semantics of
    a reduction). *)

val of_int_array : name:string -> int array -> t

val snapshot_f : t -> float array
(** Copy of the logical contents, read through the accessors. *)

val snapshot_i : t -> int array

val apply_redop_f : Ast.redop -> float -> float -> float
val apply_redop_i : Ast.redop -> int -> int -> int
val redop_identity_f : Ast.redop -> float
val redop_identity_i : Ast.redop -> int
