open Mgacc_minic
open Ast

type t = {
  name : string;
  elem : elem_ty;
  length : int;
  fdata : float array;
  idata : int array;
  base : int;
  read_lo : int;
  read_hi : int;
  write_lo : int;
  write_hi : int;
  wrote : (int -> unit) option;
  get_f : int -> float;
  set_f : int -> float -> unit;
  get_i : int -> int;
  set_i : int -> int -> unit;
  reduce_f : redop -> int -> float -> unit;
  reduce_i : redop -> int -> int -> unit;
}

exception Bounds of { name : string; index : int; length : int }

let apply_redop_f op a b =
  match op with
  | Rplus -> a +. b
  | Rmul -> a *. b
  | Rmax -> Float.max a b
  | Rmin -> Float.min a b

let apply_redop_i op a b =
  match op with Rplus -> a + b | Rmul -> a * b | Rmax -> max a b | Rmin -> min a b

let redop_identity_f = function
  | Rplus -> 0.0
  | Rmul -> 1.0
  | Rmax -> neg_infinity
  | Rmin -> infinity

let redop_identity_i = function
  | Rplus -> 0
  | Rmul -> 1
  | Rmax -> min_int
  | Rmin -> max_int

let make ~name ~elem ~length ?(fdata = [||]) ?(idata = [||]) ?(base = 0) ?(read = (0, 0))
    ?(write = (0, 0)) ?wrote ?get_f ?set_f ?get_i ?set_i ?reduce_f ?reduce_i () =
  let wrong what = invalid_arg (Printf.sprintf "View: %s on %s" what name) in
  let size = match elem with Edouble -> Array.length fdata | Eint -> Array.length idata in
  let range what (lo, hi) =
    if lo < hi && (lo - base < 0 || hi - base > size) then
      invalid_arg (Printf.sprintf "View.make: %s range of %s exceeds its buffer" what name);
    (lo, hi)
  in
  let read_lo, read_hi = range "read" read and write_lo, write_hi = range "write" write in
  let not_reduction _ _ _ =
    invalid_arg (Printf.sprintf "array %s is not a reduction destination" name)
  in
  {
    name;
    elem;
    length;
    fdata;
    idata;
    base;
    read_lo;
    read_hi;
    write_lo;
    write_hi;
    wrote;
    get_f = Option.value get_f ~default:(fun _ -> wrong "double read");
    set_f = Option.value set_f ~default:(fun _ _ -> wrong "double write");
    get_i = Option.value get_i ~default:(fun _ -> wrong "int read");
    set_i = Option.value set_i ~default:(fun _ _ -> wrong "int write");
    reduce_f = Option.value reduce_f ~default:not_reduction;
    reduce_i = Option.value reduce_i ~default:not_reduction;
  }

let of_float_array ~name data =
  let n = Array.length data in
  let check i = if i < 0 || i >= n then raise (Bounds { name; index = i; length = n }) in
  make ~name ~elem:Edouble ~length:n ~fdata:data ~read:(0, n) ~write:(0, n)
    ~get_f:(fun i ->
      check i;
      Array.unsafe_get data i)
    ~set_f:(fun i v ->
      check i;
      Array.unsafe_set data i v)
    ~reduce_f:(fun op i v ->
      check i;
      Array.unsafe_set data i (apply_redop_f op (Array.unsafe_get data i) v))
    ()

let of_int_array ~name data =
  let n = Array.length data in
  let check i = if i < 0 || i >= n then raise (Bounds { name; index = i; length = n }) in
  make ~name ~elem:Eint ~length:n ~idata:data ~read:(0, n) ~write:(0, n)
    ~get_i:(fun i ->
      check i;
      Array.unsafe_get data i)
    ~set_i:(fun i v ->
      check i;
      Array.unsafe_set data i v)
    ~reduce_i:(fun op i v ->
      check i;
      Array.unsafe_set data i (apply_redop_i op (Array.unsafe_get data i) v))
    ()

let snapshot_f v =
  match v.elem with
  | Edouble -> Array.init v.length v.get_f
  | Eint -> invalid_arg (Printf.sprintf "View.snapshot_f: %s is an int view" v.name)

let snapshot_i v =
  match v.elem with
  | Eint -> Array.init v.length v.get_i
  | Edouble -> invalid_arg (Printf.sprintf "View.snapshot_i: %s is a double view" v.name)
