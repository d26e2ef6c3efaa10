open Mgacc_minic
open Ast
module Cost = Mgacc_gpusim.Cost
module Coalesce = Mgacc_analysis.Coalesce
module Loop_info = Mgacc_analysis.Loop_info

type t = {
  run_iter : Frame.t -> int -> unit;
  make_frame : unit -> Frame.t;
  params : (string * Frame.slot * Ast.typ) list;
  cost : Cost.t;
}

exception Brk
exception Cnt
exception Return

(* ------------------------------------------------------------------ *)
(* Reduction statement decomposition.                                  *)
(* ------------------------------------------------------------------ *)

let same_subscript a b = Pretty.expr_to_string a = Pretty.expr_to_string b

let extract_reduction op stmt =
  let loc = stmt.sloc in
  let bad fmt = Loc.error loc fmt in
  match stmt.sdesc with
  | Sassign (Lindex (arr, idx), aop, rhs) -> (
      let neg e = { edesc = Unop (Neg, e); eloc = e.eloc } in
      let is_dest e = match e.edesc with Index (a, i) -> a = arr && same_subscript i idx | _ -> false in
      match (aop, op) with
      | Add_set, Rplus -> (idx, rhs)
      | Sub_set, Rplus -> (idx, neg rhs)
      | Mul_set, Rmul -> (idx, rhs)
      | Set, _ -> (
          match rhs.edesc with
          | Binop (Add, l, r) when op = Rplus && is_dest l -> (idx, r)
          | Binop (Add, l, r) when op = Rplus && is_dest r -> (idx, l)
          | Binop (Sub, l, r) when op = Rplus && is_dest l -> (idx, neg r)
          | Binop (Mul, l, r) when op = Rmul && is_dest l -> (idx, r)
          | Binop (Mul, l, r) when op = Rmul && is_dest r -> (idx, l)
          | Call (("fmax" | "max"), [ l; r ]) when op = Rmax && is_dest l -> (idx, r)
          | Call (("fmax" | "max"), [ l; r ]) when op = Rmax && is_dest r -> (idx, l)
          | Call (("fmin" | "min"), [ l; r ]) when op = Rmin && is_dest l -> (idx, r)
          | Call (("fmin" | "min"), [ l; r ]) when op = Rmin && is_dest r -> (idx, l)
          | _ ->
              bad "statement does not match a %s-reduction into %s" (redop_to_string op) arr)
      | _ ->
          bad "assignment operator does not match the declared %s reduction" (redop_to_string op))
  | _ -> Loc.error loc "reductiontoarray must annotate an assignment into an array element"

(* ------------------------------------------------------------------ *)
(* Host context.                                                       *)
(* ------------------------------------------------------------------ *)

type env = {
  host : host;
  frame : Frame.t;
  scope : Frame.Layout.t;
  seq : (Loc.t * (Frame.t -> unit)) option;
}

and hooks = {
  on_parallel_loop : env -> Loop_info.t -> unit;
  on_data_enter : env -> clause list -> unit;
  on_data_exit : env -> clause list -> unit;
  on_update_host : env -> subarray list -> unit;
  on_update_device : env -> subarray list -> unit;
}

and host = {
  prog : program;
  hooks : hooks;
  fns : (string, fn) Hashtbl.t;
  loop_ids : (Loc.t, int) Hashtbl.t;
  mutable next_loop_id : int;
  sink : Cost.t;  (** host code is never charged to the model *)
}

(* A user function: its parameters and return value live in slots of a
   layout of its own, and every call runs in a fresh frame of it. The body
   compiles on first call, so recursion finds the header in place. *)
and fn = {
  fn_layout : Frame.Layout.t;
  fn_params : Frame.slot list;
  fn_ret : Frame.slot option;
  fn_body : (Frame.t -> unit) Lazy.t;
}

(* ------------------------------------------------------------------ *)
(* Compilation context.                                                *)
(* ------------------------------------------------------------------ *)

type ctx = {
  layout : Frame.Layout.t;
  cost : Cost.t;
  classify : string -> Ast.expr -> Coalesce.mode;
  host_ctx : host option;  (** [None] compiles a kernel body *)
  ret : Frame.slot option;  (** the enclosing function's return slot *)
}

let host_classify _ _ = Coalesce.Coalesced

let ty_of ctx e =
  let lookup v = Option.map snd (Frame.Layout.lookup ctx.layout v) in
  match ctx.host_ctx with
  | Some host -> Typecheck.type_of_expr_in host.prog lookup e
  | None -> Typecheck.type_of_expr lookup e

let slot_of ctx loc v =
  match Frame.Layout.lookup ctx.layout v with
  | Some (slot, ty) -> (slot, ty)
  | None -> Loc.error loc "compilation: unbound variable %s" v

let view_slot_of ctx loc a =
  match slot_of ctx loc a with
  | Frame.View_slot i, Tarray elem -> (i, elem)
  | _ -> Loc.error loc "compilation: %s is not an array" a

let int_index = function Frame.Int_slot i -> i | _ -> assert false
let float_index = function Frame.Float_slot i -> i | _ -> assert false

(* An iteration body run under a parallel loop: break/continue cannot leave
   it. *)
let iteration loc body fr =
  try body fr
  with Brk | Cnt -> Loc.error loc "break/continue escaping a parallel loop iteration"

let loop_id_for host loc =
  match Hashtbl.find_opt host.loop_ids loc with
  | Some id -> id
  | None ->
      let id = host.next_loop_id in
      host.next_loop_id <- id + 1;
      Hashtbl.replace host.loop_ids loc id;
      id

let nop : Frame.t -> unit = fun _ -> ()

let seq fs =
  match Array.of_list fs with
  | [||] -> nop
  | [| f |] -> f
  | [| f; g |] ->
      fun fr ->
        f fr;
        g fr
  | arr ->
      fun fr ->
        for k = 0 to Array.length arr - 1 do
          (Array.unsafe_get arr k) fr
        done

(* ------------------------------------------------------------------ *)
(* Operands.                                                           *)
(* ------------------------------------------------------------------ *)

(* A double operand: the float slot that holds its value once [code], if
   any, has run. Variables and literals (constant slots) have no code;
   every other node computes into a temporary slot of the frame, so
   passing a double from node to node never boxes it. *)
type fop = { slot : int; code : (Frame.t -> unit) option }

(* An int operand. [Imad (a, b, c)] is [a * b + c] over three int slots
   (literals in constant slots), the leaf-only form of most subscripts. *)
type iop = Iconst of int | Islot of int | Icode of (Frame.t -> int) | Imad of int * int * int

(* The traffic one access of [n] bytes charges at its site. *)
type site = Coalesced of int | Broadcast of int | Random of int

(* The hot helpers stay in this module: the dev profile compiles with
   -opaque, so nothing from another module is inlined. *)
let[@inline] fget fr s = Array.unsafe_get fr.Frame.floats s
let[@inline] fset fr s v = Array.unsafe_set fr.Frame.floats s v
let[@inline] iget fr s = Array.unsafe_get fr.Frame.ints s
let[@inline] iset fr s v = Array.unsafe_set fr.Frame.ints s v
let[@inline] run fr = function None -> () | Some code -> code fr

let[@inline] ival (cost : Cost.t) fr = function
  | Iconst n -> n
  | Islot s -> iget fr s
  | Icode f -> f fr
  | Imad (a, b, c) ->
      cost.Cost.int_ops <- cost.Cost.int_ops + 2;
      (iget fr a * iget fr b) + iget fr c

let[@inline] view fr vi =
  match Array.unsafe_get fr.Frame.views vi with Some v -> v | None -> Frame.get_view fr vi

let[@inline] count (cost : Cost.t) = function
  | Coalesced n -> cost.Cost.coalesced_bytes <- cost.Cost.coalesced_bytes + n
  | Broadcast n -> cost.Cost.broadcast_bytes <- cost.Cost.broadcast_bytes + n
  | Random n ->
      cost.Cost.random_accesses <- cost.Cost.random_accesses + 1;
      cost.Cost.random_bytes <- cost.Cost.random_bytes + n

(* Element access: straight to the buffer inside the view's direct range,
   else through its checked closures. A double is stored into its slot in
   each branch: a float joined from the two would be boxed. *)
let[@inline] load_f fr dst (v : View.t) i =
  if i >= v.View.read_lo && i < v.View.read_hi then fset fr dst v.View.fdata.(i - v.View.base)
  else fset fr dst (v.View.get_f i)

let[@inline] load_i (v : View.t) i =
  if i >= v.View.read_lo && i < v.View.read_hi then v.View.idata.(i - v.View.base)
  else v.View.get_i i

let[@inline] wrote (v : View.t) i = match v.View.wrote with None -> () | Some w -> w i

let[@inline] store_f (v : View.t) i x =
  if i >= v.View.write_lo && i < v.View.write_hi then begin
    v.View.fdata.(i - v.View.base) <- x;
    wrote v i
  end
  else v.View.set_f i x

let[@inline] store_i (v : View.t) i x =
  if i >= v.View.write_lo && i < v.View.write_hi then begin
    v.View.idata.(i - v.View.base) <- x;
    wrote v i
  end
  else v.View.set_i i x

let[@inline] int_binop loc op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div ->
      if b = 0 then Loc.error loc "integer division by zero";
      a / b
  | Mod ->
      if b = 0 then Loc.error loc "integer modulo by zero";
      a mod b
  | Band -> a land b
  | Bor -> a lor b
  | Bxor -> a lxor b
  | Shl -> a lsl b
  | Shr -> a asr b
  | Eq | Ne | Lt | Le | Gt | Ge | Land | Lor -> assert false

let[@inline] compare_f op (a : float) b =
  match op with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | _ -> a >= b

let[@inline] compare_i op (a : int) b =
  match op with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | _ -> a >= b

let[@inline] float_binop fr dst op a b =
  match op with
  | Add -> fset fr dst (fget fr a +. fget fr b)
  | Sub -> fset fr dst (fget fr a -. fget fr b)
  | Mul -> fset fr dst (fget fr a *. fget fr b)
  | _ -> fset fr dst (fget fr a /. fget fr b)

(* A double node's counter, then its operands, right before left. *)
let[@inline] flop_operands (cost : Cost.t) fr x y =
  cost.Cost.flops <- cost.Cost.flops + 1;
  run fr y.code;
  run fr x.code

let binop_of_assign = function
  | Set -> None
  | Add_set -> Some Add
  | Sub_set -> Some Sub
  | Mul_set -> Some Mul
  | Div_set -> Some Div

let site ctx a idx width =
  match ctx.classify a idx with
  | Coalesce.Broadcast -> Broadcast width
  | Coalesce.Coalesced -> Coalesced width
  | Coalesce.Strided _ | Coalesce.Random -> Random width

let temp ctx = float_index (Frame.Layout.reserve ctx.layout Tdouble)

(* ------------------------------------------------------------------ *)
(* Shapes.                                                             *)
(* ------------------------------------------------------------------ *)

(* The expressions a statement evaluates itself, and its sub-statements. *)
let parts s =
  let of_lv = function Lvar _ -> [] | Lindex (_, e) -> [ e ] in
  match s.sdesc with
  | Sdecl (_, _, e) | Sreturn e -> (Option.to_list e, [])
  | Sarray_decl (_, _, e) | Sexpr e -> ([ e ], [])
  | Sassign (lv, _, e) -> (of_lv lv @ [ e ], [])
  | Sincr (lv, _) -> (of_lv lv, [])
  | Sif (c, a, b) -> ([ c ], a @ b)
  | Swhile (c, b) -> ([ c ], b)
  | Sfor (h, b) -> (Option.to_list h.for_cond, Option.to_list h.for_init @ Option.to_list h.for_update @ b)
  | Sbreak | Scontinue -> ([], [])
  | Sblock b -> ([], b)
  | Spragma (_, s) -> ([], [ s ])

let rec user_call_in_expr e =
  match e.edesc with
  | Call (name, _) when not (Builtins.is_builtin name) -> Some (name, e.eloc)
  | Call (_, es) -> List.find_map user_call_in_expr es
  | Index (_, x) | Unop (_, x) -> user_call_in_expr x
  | Binop (_, x, y) -> List.find_map user_call_in_expr [ x; y ]
  | Ternary (c, x, y) -> List.find_map user_call_in_expr [ c; x; y ]
  | Int_lit _ | Float_lit _ | Var _ | Length _ -> None

(* The first user-function call in [body], with its location. *)
let rec user_call_in body =
  List.find_map
    (fun s ->
      let es, ss = parts s in
      match List.find_map user_call_in_expr es with Some _ as c -> c | None -> user_call_in ss)
    body

(* Whether [body] can run under a native counted loop: it assigns none of
   [vars], and has no break/continue outside a nested loop, no return and
   no directive. *)
let rec counted_body ~vars ~nested body =
  List.for_all
    (fun s ->
      match s.sdesc with
      | Sassign (Lvar v, _, _) | Sincr (Lvar v, _) -> not (List.mem v vars)
      | Sbreak | Scontinue -> nested
      | Sreturn _ | Spragma _ -> false
      | Swhile _ | Sfor _ -> counted_body ~vars ~nested:true (snd (parts s))
      | _ -> counted_body ~vars ~nested (snd (parts s)))
    body

(* ------------------------------------------------------------------ *)
(* Expression compilation.                                             *)
(* ------------------------------------------------------------------ *)

(* Operands are evaluated right before left, and a node's counter is
   bumped before its operands run. *)
let rec comp_f ctx e : fop =
  let float_var =
    match e.edesc with
    | Var v -> (
        match Frame.Layout.lookup ctx.layout v with
        | Some (Frame.Float_slot i, _) -> Some i
        | _ -> None)
    | _ -> None
  in
  match (e.edesc, float_var) with
  | Float_lit v, _ -> { slot = Frame.Layout.const_float ctx.layout v; code = None }
  | Int_lit n, _ -> { slot = Frame.Layout.const_float ctx.layout (float_of_int n); code = None }
  | _, Some i -> { slot = i; code = None }
  | _, None ->
      let t = temp ctx in
      { slot = t; code = Some (comp_f_into ctx e t) }

(* Code that stores the value of [e] into float slot [dst]. It writes [dst]
   last, after every operand is read, so [dst] may be one of them. *)
and comp_f_into ctx e dst : Frame.t -> unit =
  match ty_of ctx e with
  | Tint ->
      let x = comp_i ctx e and cost = ctx.cost in
      fun fr -> fset fr dst (float_of_int (ival cost fr x))
  | Tdouble -> comp_double_into ctx e dst
  | t -> Loc.error e.eloc "expected numeric expression, got %s" (typ_to_string t)

and comp_double_into ctx e dst : Frame.t -> unit =
  let cost = ctx.cost in
  let leaf x = fun fr -> fset fr dst (fget fr x.slot) in
  match e.edesc with
  | Float_lit _ -> leaf (comp_f ctx e)
  | Var v -> (
      match slot_of ctx e.eloc v with
      | Frame.Float_slot _, _ -> leaf (comp_f ctx e)
      | _ -> Loc.error e.eloc "%s is not a double variable" v)
  | Index (a, idx) ->
      let vi, elem = view_slot_of ctx e.eloc a in
      if elem <> Edouble then Loc.error e.eloc "%s is not a double array" a;
      let ix = comp_i ctx idx and k = site ctx a idx 8 in
      fun fr ->
        count cost k;
        let i = ival cost fr ix in
        load_f fr dst (view fr vi) i
  | Unop (Neg, x) ->
      let x = comp_f ctx x in
      fun fr ->
        cost.Cost.flops <- cost.Cost.flops + 1;
        run fr x.code;
        fset fr dst (-.fget fr x.slot)
  | Unop (Cast_double, x) -> comp_f_into ctx x dst
  | Unop ((Not | Bit_not | Cast_int), _) -> assert false (* typed Tint *)
  | Binop (op, x, y) -> (
      let x = comp_f ctx x and y = comp_f ctx y in
      let a = x.slot and b = y.slot in
      match op with
      | Add ->
          fun fr ->
            flop_operands cost fr x y;
            fset fr dst (fget fr a +. fget fr b)
      | Sub ->
          fun fr ->
            flop_operands cost fr x y;
            fset fr dst (fget fr a -. fget fr b)
      | Mul ->
          fun fr ->
            flop_operands cost fr x y;
            fset fr dst (fget fr a *. fget fr b)
      | Div ->
          fun fr ->
            flop_operands cost fr x y;
            fset fr dst (fget fr a /. fget fr b)
      | Mod | Eq | Ne | Lt | Le | Gt | Ge | Land | Lor | Band | Bor | Bxor | Shl | Shr ->
          assert false (* typed Tint *))
  | Ternary (c, a, b) ->
      let cc = comp_cond ctx c in
      let fa = comp_f_into ctx a dst and fb = comp_f_into ctx b dst in
      fun fr ->
        cost.Cost.int_ops <- cost.Cost.int_ops + 1;
        if cc fr then fa fr else fb fr
  | Call (name, args) -> (
      match Builtins.find name with
      | Some b -> (
          let flops = b.Builtins.flops in
          match (b.Builtins.fn, List.map (comp_f ctx) args) with
          | Builtins.F1 _, [ x ] when name = "sqrt" ->
              fun fr ->
                cost.Cost.flops <- cost.Cost.flops + flops;
                run fr x.code;
                fset fr dst (Float.sqrt (fget fr x.slot))
          | Builtins.F1 g, [ x ] ->
              fun fr ->
                cost.Cost.flops <- cost.Cost.flops + flops;
                run fr x.code;
                fset fr dst (g (fget fr x.slot))
          | Builtins.F2 g, [ x; y ] ->
              fun fr ->
                cost.Cost.flops <- cost.Cost.flops + flops;
                run fr y.code;
                run fr x.code;
                fset fr dst (g (fget fr x.slot) (fget fr y.slot))
          | _ -> Loc.error e.eloc "unsupported builtin arity for %s" name)
      | None -> (
          match comp_call ctx e.eloc name args ~in_expr:true with
          | Some (Frame.Float_slot k), call -> fun fr -> fset fr dst (fget (call fr) k)
          | _ -> assert false (* typed Tdouble *)))
  | Int_lit _ | Length _ -> assert false (* typed Tint *)

and comp_i ctx e : iop =
  match ty_of ctx e with
  | Tdouble ->
      (* C-style implicit truncation. *)
      let x = comp_f ctx e in
      Icode
        (fun fr ->
          run fr x.code;
          int_of_float (fget fr x.slot))
  | Tint -> comp_i_native ctx e
  | t -> Loc.error e.eloc "expected numeric expression, got %s" (typ_to_string t)

and is_int_leaf ctx e =
  match e.edesc with
  | Int_lit _ -> true
  | Var v -> (
      match Frame.Layout.lookup ctx.layout v with Some (Frame.Int_slot _, _) -> true | _ -> false)
  | _ -> false

(* [x + y] as the leaves [a, b, c] of [a * b + c]. *)
and mad_parts ctx x y =
  let leaves = List.for_all (is_int_leaf ctx) in
  match (x.edesc, y.edesc) with
  | Binop (Mul, a, b), _ when leaves [ a; b; y ] -> Some (a, b, y)
  | _, Binop (Mul, a, b) when leaves [ a; b; x ] -> Some (a, b, x)
  | _ -> None

(* An [is_int_leaf] expression as a slot: literals get constant slots. *)
and int_leaf ctx e =
  match e.edesc with
  | Int_lit n -> Frame.Layout.const_int ctx.layout n
  | Var v -> int_index (fst (slot_of ctx e.eloc v))
  | _ -> assert false

and comp_i_native ctx e : iop =
  let cost = ctx.cost in
  let unary x f =
    let x = comp_i ctx x in
    Icode
      (fun fr ->
        cost.Cost.int_ops <- cost.Cost.int_ops + 1;
        f (ival cost fr x))
  in
  match e.edesc with
  | Int_lit v -> Iconst v
  | Var v -> (
      match slot_of ctx e.eloc v with
      | Frame.Int_slot i, _ -> Islot i
      | _ -> Loc.error e.eloc "%s is not an int variable" v)
  | Length a ->
      let vi, _ = view_slot_of ctx e.eloc a in
      Icode (fun fr -> (view fr vi).View.length)
  | Index (a, idx) ->
      let vi, elem = view_slot_of ctx e.eloc a in
      if elem <> Eint then Loc.error e.eloc "%s is not an int array" a;
      let ix = comp_i ctx idx and k = site ctx a idx 4 in
      Icode
        (fun fr ->
          count cost k;
          let i = ival cost fr ix in
          load_i (view fr vi) i)
  | Unop (Neg, x) -> unary x (fun n -> -n)
  | Unop (Bit_not, x) -> unary x lnot
  | Unop (Cast_int, x) -> (
      match ty_of ctx x with
      | Tdouble ->
          let x = comp_f ctx x in
          Icode
            (fun fr ->
              cost.Cost.int_ops <- cost.Cost.int_ops + 1;
              run fr x.code;
              int_of_float (fget fr x.slot))
      | _ -> comp_i ctx x)
  | Unop (Cast_double, _) -> assert false (* typed Tdouble *)
  | Unop (Not, _) | Binop ((Eq | Ne | Lt | Le | Gt | Ge | Land | Lor), _, _) ->
      let c = comp_cond ctx e in
      Icode (fun fr -> if c fr then 1 else 0)
  | Binop (Add, x, y) when mad_parts ctx x y <> None ->
      let a, b, c = Option.get (mad_parts ctx x y) in
      let c = int_leaf ctx c and b = int_leaf ctx b and a = int_leaf ctx a in
      Imad (a, b, c)
  | Binop (op, x, y) ->
      let x = comp_i ctx x and y = comp_i ctx y and loc = e.eloc in
      Icode
        (fun fr ->
          cost.Cost.int_ops <- cost.Cost.int_ops + 1;
          let b = ival cost fr y in
          int_binop loc op (ival cost fr x) b)
  | Ternary (c, a, b) ->
      let cc = comp_cond ctx c and fa = comp_i ctx a and fb = comp_i ctx b in
      Icode
        (fun fr ->
          cost.Cost.int_ops <- cost.Cost.int_ops + 1;
          if cc fr then ival cost fr fa else ival cost fr fb)
  | Call (name, args) -> (
      match Builtins.find name with
      | Some b -> (
          let flops = b.Builtins.flops in
          match (b.Builtins.fn, List.map (comp_i ctx) args) with
          | Builtins.I1 g, [ x ] ->
              Icode
                (fun fr ->
                  cost.Cost.int_ops <- cost.Cost.int_ops + flops;
                  g (ival cost fr x))
          | Builtins.I2 g, [ x; y ] ->
              Icode
                (fun fr ->
                  cost.Cost.int_ops <- cost.Cost.int_ops + flops;
                  let b = ival cost fr y in
                  g (ival cost fr x) b)
          | _ -> Loc.error e.eloc "unsupported builtin arity for %s" name)
      | None -> (
          match comp_call ctx e.eloc name args ~in_expr:true with
          | Some (Frame.Int_slot k), call -> Icode (fun fr -> iget (call fr) k)
          | _ -> assert false (* typed Tint *)))
  | Float_lit _ -> assert false (* typed Tdouble *)

(* A condition tested the C way: a double is true when it is non-zero. *)
and comp_cond ctx e : Frame.t -> bool =
  let cost = ctx.cost in
  match e.edesc with
  | Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), x, y) ->
      if ty_of ctx x = Tdouble || ty_of ctx y = Tdouble then begin
        let x = comp_f ctx x and y = comp_f ctx y in
        fun fr ->
          cost.Cost.flops <- cost.Cost.flops + 1;
          run fr y.code;
          run fr x.code;
          compare_f op (fget fr x.slot) (fget fr y.slot)
      end
      else begin
        let x = comp_i ctx x and y = comp_i ctx y in
        fun fr ->
          cost.Cost.int_ops <- cost.Cost.int_ops + 1;
          let b = ival cost fr y in
          compare_i op (ival cost fr x) b
      end
  | Binop (Land, x, y) ->
      let cx = comp_cond ctx x and cy = comp_cond ctx y in
      fun fr ->
        cost.Cost.int_ops <- cost.Cost.int_ops + 1;
        cx fr && cy fr
  | Binop (Lor, x, y) ->
      let cx = comp_cond ctx x and cy = comp_cond ctx y in
      fun fr ->
        cost.Cost.int_ops <- cost.Cost.int_ops + 1;
        cx fr || cy fr
  | Unop (Not, x) ->
      if ty_of ctx x = Tdouble then begin
        let x = comp_f ctx x in
        fun fr ->
          cost.Cost.flops <- cost.Cost.flops + 1;
          run fr x.code;
          fget fr x.slot = 0.0
      end
      else begin
        let c = comp_cond ctx x in
        fun fr ->
          cost.Cost.int_ops <- cost.Cost.int_ops + 1;
          not (c fr)
      end
  | _ -> (
      match ty_of ctx e with
      | Tdouble ->
          let x = comp_f ctx e in
          fun fr ->
            run fr x.code;
            fget fr x.slot <> 0.0
      | _ ->
          let x = comp_i ctx e in
          fun fr -> ival cost fr x <> 0)

(* A user-function call (host code only). The closure evaluates the
   arguments into a fresh callee frame — scalars by value, arrays by view —
   runs the body, and yields the callee frame, whose return slot is the
   first component. A value is required [in_expr]. *)
and comp_call ctx loc name args ~in_expr =
  match ctx.host_ctx with
  | None -> Loc.error loc "user function calls are not allowed in kernels: %s" name
  | Some host ->
      let fn = fn_of host loc name in
      if List.length args <> List.length fn.fn_params then
        Loc.error loc "function %s: arity mismatch" name;
      let binds = Array.of_list (List.map2 (comp_arg ctx) fn.fn_params args) in
      ( fn.fn_ret,
        fun fr ->
          let body = Lazy.force fn.fn_body in
          let callee = Frame.create fn.fn_layout in
          for k = 0 to Array.length binds - 1 do
            binds.(k) fr callee
          done;
          match body callee with
          | () when in_expr -> Loc.error loc "void function %s used in an expression" name
          | () | (exception Return) -> callee )

and comp_arg ctx slot (arg : expr) : Frame.t -> Frame.t -> unit =
  match slot with
  | Frame.View_slot k -> (
      match arg.edesc with
      | Var a ->
          let vi, _ = view_slot_of ctx arg.eloc a in
          fun fr callee -> callee.Frame.views.(k) <- fr.Frame.views.(vi)
      | _ -> Loc.error arg.eloc "array argument must be an array name")
  | Frame.Int_slot k ->
      let x = comp_i ctx arg and cost = ctx.cost in
      fun fr callee -> iset callee k (ival cost fr x)
  | Frame.Float_slot k ->
      let x = comp_f ctx arg in
      fun fr callee ->
        run fr x.code;
        fset callee k (fget fr x.slot)

and fn_of host loc name =
  match Hashtbl.find_opt host.fns name with
  | Some fn -> fn
  | None ->
      let f =
        match find_func host.prog name with
        | Some f -> f
        | None -> Loc.error loc "call to undefined function %s" name
      in
      let layout = Frame.Layout.create () in
      let ret =
        match f.fret with
        | (Tint | Tdouble) as ty -> Some (Frame.Layout.reserve layout ty)
        | Tvoid | Tarray _ -> None
      in
      (* Parameters and the body's top-level names share one scope. *)
      let params =
        List.map (fun p -> Frame.Layout.declare layout f.floc p.param_name p.param_ty) f.fparams
      in
      let ctx = { layout; cost = host.sink; classify = host_classify; host_ctx = Some host; ret } in
      let fn =
        {
          fn_layout = layout;
          fn_params = params;
          fn_ret = ret;
          fn_body = lazy (comp_block_no_scope ctx f.fbody);
        }
      in
      Hashtbl.replace host.fns name fn;
      fn

(* ------------------------------------------------------------------ *)
(* Statement compilation.                                              *)
(* ------------------------------------------------------------------ *)

(* In host code a statement that cannot compile fails only if it executes,
   so code that never runs cannot stop a program; a kernel body is rejected
   as a whole. *)
and comp_stmt ctx s : Frame.t -> unit =
  match ctx.host_ctx with
  | None -> comp_stmt_exn ctx s
  | Some _ -> ( try comp_stmt_exn ctx s with Loc.Error _ as err -> fun _ -> raise err)

and comp_stmt_exn ctx s : Frame.t -> unit =
  let cost = ctx.cost in
  match s.sdesc with
  | Sdecl (ty, name, init) -> (
      (* The initializer sees the enclosing scope, not the new name. *)
      let zero = if ty = Tint then Int_lit 0 else Float_lit 0.0 in
      let init = Option.value init ~default:{ edesc = zero; eloc = s.sloc } in
      match ty with
      | Tint ->
          let x = comp_i ctx init in
          let i = int_index (Frame.Layout.declare ctx.layout s.sloc name ty) in
          fun fr -> iset fr i (ival cost fr x)
      | Tdouble ->
          let slot = Frame.Layout.reserve ctx.layout Tdouble in
          let code = comp_f_into ctx init (float_index slot) in
          ignore (Frame.Layout.declare ~slot ctx.layout s.sloc name ty);
          code
      | Tvoid | Tarray _ ->
          ignore (comp_f ctx init);
          ignore (Frame.Layout.declare ctx.layout s.sloc name ty);
          Loc.error s.sloc "unsupported declaration of %s" name)
  | Sarray_decl (elem, name, len) -> (
      if ctx.host_ctx = None then
        Loc.error s.sloc "array declaration of %s not allowed inside a kernel" name;
      let n = comp_i ctx len in
      let slot = Frame.Layout.declare ctx.layout s.sloc name (Tarray elem) in
      let bind fr make =
        let n = ival cost fr n in
        if n < 0 then Loc.error s.sloc "negative array length for %s" name;
        Frame.set_view fr slot (make n)
      in
      match elem with
      | Eint -> fun fr -> bind fr (fun n -> View.of_int_array ~name (Array.make n 0))
      | Edouble -> fun fr -> bind fr (fun n -> View.of_float_array ~name (Array.make n 0.0)))
  | Sassign (Lvar v, op, rhs) -> (
      match slot_of ctx s.sloc v with
      | Frame.Int_slot i, _ -> (
          let x = comp_i ctx rhs in
          match binop_of_assign op with
          | None -> fun fr -> iset fr i (ival cost fr x)
          | Some op ->
              fun fr ->
                cost.Cost.int_ops <- cost.Cost.int_ops + 1;
                let b = ival cost fr x in
                iset fr i (int_binop s.sloc op (iget fr i) b))
      | Frame.Float_slot i, _ ->
          (* [v op= e] charges and evaluates exactly as [v = v op e]. *)
          let rhs =
            match binop_of_assign op with
            | None -> rhs
            | Some op -> { edesc = Binop (op, { edesc = Var v; eloc = s.sloc }, rhs); eloc = s.sloc }
          in
          comp_f_into ctx rhs i
      | Frame.View_slot _, _ -> Loc.error s.sloc "cannot assign whole array %s" v)
  | Sassign (Lindex (a, idx), op, rhs) -> (
      let vi, elem = view_slot_of ctx s.sloc a in
      let ix = comp_i ctx idx in
      let k = site ctx a idx (elem_ty_size elem) in
      match (elem, binop_of_assign op) with
      | Edouble, None ->
          let x = comp_f ctx rhs in
          fun fr ->
            count cost k;
            run fr x.code;
            let i = ival cost fr ix in
            store_f (view fr vi) i (fget fr x.slot)
      | Edouble, Some op ->
          let x = comp_f ctx rhs and t = temp ctx in
          fun fr ->
            cost.Cost.flops <- cost.Cost.flops + 1;
            count cost k;
            count cost k;
            let v = view fr vi in
            let i = ival cost fr ix in
            run fr x.code;
            load_f fr t v i;
            float_binop fr t op t x.slot;
            store_f v i (fget fr t)
      | Eint, None ->
          let x = comp_i ctx rhs in
          fun fr ->
            count cost k;
            let n = ival cost fr x in
            let i = ival cost fr ix in
            store_i (view fr vi) i n
      | Eint, Some op ->
          let x = comp_i ctx rhs in
          fun fr ->
            cost.Cost.int_ops <- cost.Cost.int_ops + 1;
            count cost k;
            count cost k;
            let v = view fr vi in
            let i = ival cost fr ix in
            let n = ival cost fr x in
            store_i v i (int_binop s.sloc op (load_i v i) n))
  | Sincr (lv, d) ->
      comp_stmt_exn ctx
        { s with sdesc = Sassign (lv, Add_set, { edesc = Int_lit d; eloc = s.sloc }) }
  | Sexpr { edesc = Call (name, args); eloc } when not (Builtins.is_builtin name) ->
      (* Calls to void user functions are legal as statements. *)
      let _, call = comp_call ctx eloc name args ~in_expr:false in
      fun fr -> ignore (call fr)
  | Sexpr e -> (
      match ty_of ctx e with
      | Tdouble -> ( match (comp_f ctx e).code with Some code -> code | None -> nop)
      | _ ->
          let x = comp_i ctx e in
          fun fr -> ignore (ival cost fr x))
  | Sif (c, then_, else_) ->
      let cc = comp_cond ctx c in
      let ct = comp_block ctx then_ and ce = comp_block ctx else_ in
      if else_ = [] then (fun fr ->
        cost.Cost.int_ops <- cost.Cost.int_ops + 1;
        if cc fr then ct fr)
      else fun fr ->
        cost.Cost.int_ops <- cost.Cost.int_ops + 1;
        if cc fr then ct fr else ce fr
  | Swhile (c, body) ->
      let cc = comp_cond ctx c in
      let cb = comp_block ctx body in
      fun fr ->
        (try
           while
             cost.Cost.int_ops <- cost.Cost.int_ops + 1;
             cc fr
           do
             try cb fr with Cnt -> ()
           done
         with Brk -> ())
  | Sfor (hdr, body) ->
      Frame.Layout.scoped ctx.layout (fun () ->
          match counted_loop ctx hdr body with
          | Some code -> code
          | None ->
              let init = match hdr.for_init with Some s' -> comp_stmt ctx s' | None -> nop in
              let cond = match hdr.for_cond with Some e -> comp_cond ctx e | None -> fun _ -> true in
              let update = match hdr.for_update with Some s' -> comp_stmt ctx s' | None -> nop in
              let cb = comp_block_no_scope ctx body in
              fun fr ->
                init fr;
                (try
                   while
                     cost.Cost.int_ops <- cost.Cost.int_ops + 1;
                     cond fr
                   do
                     (try cb fr with Cnt -> ());
                     update fr
                   done
                 with Brk -> ()))
  | Sreturn e -> (
      match (ctx.host_ctx, e, ctx.ret) with
      | None, _, _ -> Loc.error s.sloc "return is not allowed inside a kernel"
      | Some _, None, _ -> fun _ -> raise Return
      | Some _, Some e, Some (Frame.Int_slot k) ->
          let x = comp_i ctx e in
          fun fr ->
            iset fr k (ival cost fr x);
            raise Return
      | Some _, Some e, Some (Frame.Float_slot k) ->
          let code = comp_f_into ctx e k in
          fun fr ->
            code fr;
            raise Return
      | Some _, Some _, _ -> Loc.error s.sloc "return with value in void function")
  | Sbreak -> fun _ -> raise Brk
  | Scontinue -> fun _ -> raise Cnt
  | Sblock body -> comp_block ctx body
  | Spragma (d, inner) -> (
      match ctx.host_ctx with
      | Some host -> comp_host_pragma ctx host s d inner
      | None -> comp_kernel_pragma ctx s d inner)

(* [for (v = e; v < b; v++)] with [b] a literal or an int variable, over a
   body with no user call that [counted_body] accepts, runs as a native
   loop. It charges in bulk what the general loop charges: per trip one
   test, one comparison and one increment, plus the final failing test and
   comparison. [v] ends where the general loop leaves it. *)
and counted_loop ctx hdr body =
  let int_var v =
    match Frame.Layout.lookup ctx.layout v with Some (Frame.Int_slot s, Tint) -> Some s | _ -> None
  in
  match hdr with
  | {
   for_init = Some ({ sdesc = Sassign (Lvar v, Set, _); _ } as init);
   for_cond = Some { edesc = Binop (Lt, { edesc = Var v'; _ }, b); _ };
   for_update = Some { sdesc = Sincr (Lvar v'', 1); _ };
  }
    when v = v' && v = v'' -> (
      let bound =
        match b.edesc with
        | Int_lit n -> Some (Iconst n, [ v ])
        | Var w -> Option.map (fun s -> (Islot s, [ v; w ])) (int_var w)
        | _ -> None
      in
      match (int_var v, bound) with
      | Some vs, Some (bound, vars)
        when user_call_in body = None && counted_body ~vars ~nested:false body ->
          let init = comp_stmt ctx init and cb = comp_block_no_scope ctx body and cost = ctx.cost in
          Some
            (fun fr ->
              init fr;
              let lo = iget fr vs and hi = ival cost fr bound in
              let trips = if lo < hi then hi - lo else 0 in
              if trips > 0 then begin
                for i = lo to hi - 1 do
                  iset fr vs i;
                  cb fr
                done;
                iset fr vs hi
              end;
              cost.Cost.int_ops <- cost.Cost.int_ops + (3 * trips) + 2)
      | _ -> None)
  | _ -> None

and comp_kernel_pragma ctx s d inner =
  let cost = ctx.cost in
  match d with
  | Dreduction_to_array { rta_op; rta_array } -> (
      let idx, contrib = extract_reduction rta_op inner in
      let vi, elem = view_slot_of ctx s.sloc rta_array in
      let ix = comp_i ctx idx in
      let width = elem_ty_size elem in
      (* A reduction update behaves like an atomic scatter: charge one
         transaction plus the combine op. *)
      match elem with
      | Edouble ->
          let x = comp_f ctx contrib in
          fun fr ->
            cost.Cost.flops <- cost.Cost.flops + 1;
            cost.Cost.random_accesses <- cost.Cost.random_accesses + 1;
            cost.Cost.random_bytes <- cost.Cost.random_bytes + width;
            run fr x.code;
            let i = ival cost fr ix in
            (view fr vi).View.reduce_f rta_op i (fget fr x.slot)
      | Eint ->
          let x = comp_i ctx contrib in
          fun fr ->
            cost.Cost.int_ops <- cost.Cost.int_ops + 1;
            cost.Cost.random_accesses <- cost.Cost.random_accesses + 1;
            cost.Cost.random_bytes <- cost.Cost.random_bytes + width;
            let n = ival cost fr x in
            let i = ival cost fr ix in
            (view fr vi).View.reduce_i rta_op i n)
  | Dparallel_loop _ | Dlocalaccess _ ->
      (* Nested parallelism: the inner loop's iterations map to vector
         lanes. Executing them in order is a valid schedule; the launcher
         separately multiplies the thread count for occupancy. *)
      comp_stmt ctx inner
  | Ddata _ | Denter_data _ | Dexit_data _ | Dupdate_host _ | Dupdate_device _ ->
      Loc.error s.sloc "directive not allowed inside a kernel body: %s"
        (Pretty.directive_to_string d)

(* Host directives compile to hook call-outs. Each site captures the names
   visible to it, so a hook resolves them against the live frame. *)
and comp_host_pragma ctx host s d inner =
  let scope = Frame.Layout.snapshot ctx.layout in
  let env fr = { host; frame = fr; scope; seq = None } in
  let hooks = host.hooks in
  let before hook arg =
    let ci = comp_stmt ctx inner in
    fun fr ->
      hook (env fr) arg;
      ci fr
  in
  match d with
  | Ddata clauses ->
      let ci = comp_stmt ctx inner in
      fun fr ->
        let env = env fr in
        hooks.on_data_enter env clauses;
        (try ci fr
         with e ->
           hooks.on_data_exit env clauses;
           raise e);
        hooks.on_data_exit env clauses
  | Denter_data clauses -> before hooks.on_data_enter clauses
  | Dexit_data clauses -> before hooks.on_data_exit clauses
  | Dupdate_host subs -> before hooks.on_update_host subs
  | Dupdate_device subs -> before hooks.on_update_device subs
  | Dreduction_to_array _ ->
      (* Outside a kernel, a reduction statement is just the statement. *)
      comp_stmt ctx inner
  | Dparallel_loop _ | Dlocalaccess _ -> (
      match Loop_info.of_stmt ~loop_id:0 s with
      | None ->
          (* A localaccess stack with no parallel directive: just run it. *)
          comp_stmt ctx inner
      | Some proto -> comp_parallel_site ctx host s.sloc proto scope)

(* A parallel loop fires [on_parallel_loop]; the hook may run the loop's
   iterations in order on the host through the compiled [seq], whose loop
   variable is a fresh slot (the host's own variable is left untouched). Loop
   ids follow first execution, not compile order. *)
and comp_parallel_site ctx host site_loc (proto : Loop_info.t) scope =
  let loop_loc = proto.Loop_info.loop_loc and cost = ctx.cost in
  let lo = comp_i ctx proto.Loop_info.lower in
  let hi = comp_i ctx proto.Loop_info.upper in
  let iv, body =
    Frame.Layout.scoped ctx.layout (fun () ->
        let iv = Frame.Layout.declare ctx.layout loop_loc proto.Loop_info.loop_var Tint in
        (int_index iv, comp_block ctx proto.Loop_info.body))
  in
  let run fr =
    let lo = ival cost fr lo in
    let hi = ival cost fr hi in
    for i = lo to hi - 1 do
      iset fr iv i;
      iteration loop_loc body fr
    done
  in
  let loop = ref None in
  fun fr ->
    let l =
      match !loop with
      | Some l -> l
      | None ->
          let l = { proto with Loop_info.loop_id = loop_id_for host site_loc } in
          loop := Some l;
          l
    in
    host.hooks.on_parallel_loop { host; frame = fr; scope; seq = Some (loop_loc, run) } l

and comp_block ctx body = Frame.Layout.scoped ctx.layout (fun () -> comp_block_no_scope ctx body)
and comp_block_no_scope ctx body = seq (List.map (comp_stmt ctx) body)

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)
(* ------------------------------------------------------------------ *)

let compile ~loop ~params ~classify =
  let layout = Frame.Layout.create () in
  let cost = Cost.zero () in
  let ctx = { layout; cost; classify; host_ctx = None; ret = None } in
  let loop_loc = loop.Loop_info.loop_loc in
  Option.iter
    (fun (name, loc) -> Loc.error loc "user function calls are not allowed in kernels: %s" name)
    (user_call_in loop.Loop_info.body);
  let iv_slot = Frame.Layout.declare layout loop_loc loop.Loop_info.loop_var Tint in
  let param_slots =
    List.map (fun (name, ty) -> (name, Frame.Layout.declare layout loop_loc name ty, ty)) params
  in
  let body = comp_block ctx loop.Loop_info.body in
  let iv_index = int_index iv_slot in
  {
    run_iter =
      (fun fr i ->
        iset fr iv_index i;
        iteration loop_loc body fr);
    make_frame = (fun () -> Frame.create layout);
    params = param_slots;
    cost;
  }

let run_main hooks prog (main : func) =
  let host =
    {
      prog;
      hooks;
      fns = Hashtbl.create 8;
      loop_ids = Hashtbl.create 8;
      next_loop_id = 0;
      sink = Cost.zero ();
    }
  in
  let fn = fn_of host main.floc main.fname in
  let body = Lazy.force fn.fn_body in
  let frame = Frame.create fn.fn_layout in
  (try body frame with Return -> ());
  { host; frame; scope = Frame.Layout.snapshot fn.fn_layout; seq = None }

(* An expression evaluated at a hook site. Its temporaries and constants
   must not take slots of the shared snapshot, whose next slots belong to
   later variables of the live frame: it compiles against a private layout
   past the live banks and runs on a copy of them. *)
let eval_at env comp e =
  let live = env.frame in
  let n_ints = Array.length live.Frame.ints and n_floats = Array.length live.Frame.floats in
  let layout = Frame.Layout.beyond env.scope ~ints:n_ints ~floats:n_floats in
  let ctx =
    { layout; cost = env.host.sink; classify = host_classify; host_ctx = Some env.host; ret = None }
  in
  let code = comp ctx e in
  let fr = { (Frame.create layout) with Frame.views = live.Frame.views } in
  Array.blit live.Frame.ints 0 fr.Frame.ints 0 n_ints;
  Array.blit live.Frame.floats 0 fr.Frame.floats 0 n_floats;
  code fr

let eval_int env e =
  eval_at env
    (fun ctx e ->
      let x = comp_i ctx e in
      fun fr -> ival ctx.cost fr x)
    e

let eval_float env e =
  eval_at env
    (fun ctx e ->
      let x = comp_f ctx e in
      fun fr ->
        run fr x.code;
        fget fr x.slot)
    e

let program_of env = env.host.prog
