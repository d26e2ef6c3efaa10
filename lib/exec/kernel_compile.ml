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

(* Cost charge for one access of [width] bytes at the given site mode. *)
let charge ctx mode width =
  let cost = ctx.cost in
  match mode with
  | Coalesce.Broadcast -> fun () -> cost.Cost.broadcast_bytes <- cost.Cost.broadcast_bytes + width
  | Coalesce.Coalesced -> fun () -> cost.Cost.coalesced_bytes <- cost.Cost.coalesced_bytes + width
  | Coalesce.Strided _ | Coalesce.Random ->
      fun () ->
        cost.Cost.random_accesses <- cost.Cost.random_accesses + 1;
        cost.Cost.random_bytes <- cost.Cost.random_bytes + width

let int_index = function Frame.Int_slot i -> i | _ -> assert false

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
  match fs with
  | [] -> nop
  | [ f ] -> f
  | fs ->
      let arr = Array.of_list fs in
      fun fr -> Array.iter (fun f -> f fr) arr

let apply_binop_assign_int loc op =
  match op with
  | Set -> fun _ rhs -> rhs
  | Add_set -> ( + )
  | Sub_set -> ( - )
  | Mul_set -> ( * )
  | Div_set ->
      fun a b ->
        if b = 0 then Loc.error loc "integer division by zero";
        a / b

let apply_binop_assign_float op =
  match op with
  | Set -> fun _ rhs -> rhs
  | Add_set -> ( +. )
  | Sub_set -> ( -. )
  | Mul_set -> ( *. )
  | Div_set -> ( /. )

(* ------------------------------------------------------------------ *)
(* Expression compilation.                                             *)
(* ------------------------------------------------------------------ *)

let rec comp_f ctx e : Frame.t -> float =
  match ty_of ctx e with
  | Tint ->
      let f = comp_i ctx e in
      fun fr -> float_of_int (f fr)
  | Tdouble -> comp_f_native ctx e
  | t -> Loc.error e.eloc "expected numeric expression, got %s" (typ_to_string t)

and comp_f_native ctx e : Frame.t -> float =
  let cost = ctx.cost in
  match e.edesc with
  | Float_lit v -> fun _ -> v
  | Var v -> (
      match slot_of ctx e.eloc v with
      | Frame.Float_slot i, _ -> fun fr -> Array.unsafe_get fr.Frame.floats i
      | _ -> Loc.error e.eloc "%s is not a double variable" v)
  | Index (a, idx) ->
      let vi, elem = view_slot_of ctx e.eloc a in
      if elem <> Edouble then Loc.error e.eloc "%s is not a double array" a;
      let ci = comp_i ctx idx in
      let bump = charge ctx (ctx.classify a idx) 8 in
      fun fr ->
        bump ();
        (Frame.get_view fr vi).View.get_f (ci fr)
  | Unop (Neg, x) ->
      let f = comp_f ctx x in
      fun fr ->
        cost.Cost.flops <- cost.Cost.flops + 1;
        -.f fr
  | Unop (Cast_double, x) -> comp_f ctx x
  | Unop ((Not | Bit_not | Cast_int), _) -> assert false (* typed Tint *)
  | Binop (op, x, y) -> (
      let fx = comp_f ctx x and fy = comp_f ctx y in
      let arith op2 =
        fun fr ->
          cost.Cost.flops <- cost.Cost.flops + 1;
          op2 (fx fr) (fy fr)
      in
      match op with
      | Add -> arith ( +. )
      | Sub -> arith ( -. )
      | Mul -> arith ( *. )
      | Div -> arith ( /. )
      | Mod | Eq | Ne | Lt | Le | Gt | Ge | Land | Lor | Band | Bor | Bxor | Shl | Shr ->
          assert false (* typed Tint *))
  | Ternary (c, a, b) ->
      let cc = comp_cond ctx c and fa = comp_f ctx a and fb = comp_f ctx b in
      fun fr ->
        cost.Cost.int_ops <- cost.Cost.int_ops + 1;
        if cc fr then fa fr else fb fr
  | Call (name, args) -> (
      match Builtins.find name with
      | Some b -> (
          let flops = b.Builtins.flops in
          match (b.Builtins.fn, List.map (comp_f ctx) args) with
          | Builtins.F1 g, [ a1 ] ->
              fun fr ->
                cost.Cost.flops <- cost.Cost.flops + flops;
                g (a1 fr)
          | Builtins.F2 g, [ a1; a2 ] ->
              fun fr ->
                cost.Cost.flops <- cost.Cost.flops + flops;
                g (a1 fr) (a2 fr)
          | _ -> Loc.error e.eloc "unsupported builtin arity for %s" name)
      | None -> (
          match comp_call ctx e.eloc name args ~in_expr:true with
          | Some (Frame.Float_slot k), call -> fun fr -> Array.unsafe_get (call fr).Frame.floats k
          | _ -> assert false (* typed Tdouble *)))
  | Int_lit _ | Length _ -> assert false (* typed Tint *)

and comp_i ctx e : Frame.t -> int =
  match ty_of ctx e with
  | Tdouble ->
      (* C-style implicit truncation. *)
      let f = comp_f_native ctx e in
      fun fr -> int_of_float (f fr)
  | Tint -> comp_i_native ctx e
  | t -> Loc.error e.eloc "expected numeric expression, got %s" (typ_to_string t)

and comp_i_native ctx e : Frame.t -> int =
  let cost = ctx.cost in
  match e.edesc with
  | Int_lit v -> fun _ -> v
  | Var v -> (
      match slot_of ctx e.eloc v with
      | Frame.Int_slot i, _ -> fun fr -> Array.unsafe_get fr.Frame.ints i
      | _ -> Loc.error e.eloc "%s is not an int variable" v)
  | Length a ->
      let vi, _ = view_slot_of ctx e.eloc a in
      fun fr -> (Frame.get_view fr vi).View.length
  | Index (a, idx) ->
      let vi, elem = view_slot_of ctx e.eloc a in
      if elem <> Eint then Loc.error e.eloc "%s is not an int array" a;
      let ci = comp_i ctx idx in
      let bump = charge ctx (ctx.classify a idx) 4 in
      fun fr ->
        bump ();
        (Frame.get_view fr vi).View.get_i (ci fr)
  | Unop (Neg, x) ->
      let f = comp_i ctx x in
      fun fr ->
        cost.Cost.int_ops <- cost.Cost.int_ops + 1;
        -f fr
  | Unop (Bit_not, x) ->
      let f = comp_i ctx x in
      fun fr ->
        cost.Cost.int_ops <- cost.Cost.int_ops + 1;
        lnot (f fr)
  | Unop (Cast_int, x) -> (
      match ty_of ctx x with
      | Tdouble ->
          let f = comp_f_native ctx x in
          fun fr ->
            cost.Cost.int_ops <- cost.Cost.int_ops + 1;
            int_of_float (f fr)
      | _ -> comp_i ctx x)
  | Unop (Cast_double, _) -> assert false (* typed Tdouble *)
  | Unop (Not, _) | Binop ((Eq | Ne | Lt | Le | Gt | Ge | Land | Lor), _, _) ->
      let c = comp_cond ctx e in
      fun fr -> if c fr then 1 else 0
  | Binop (op, x, y) -> (
      let fx = comp_i ctx x and fy = comp_i ctx y in
      let arith op2 =
        fun fr ->
          cost.Cost.int_ops <- cost.Cost.int_ops + 1;
          op2 (fx fr) (fy fr)
      in
      let nonzero what op2 a b =
        if b = 0 then Loc.error e.eloc "integer %s by zero" what;
        op2 a b
      in
      match op with
      | Add -> arith ( + )
      | Sub -> arith ( - )
      | Mul -> arith ( * )
      | Div -> arith (nonzero "division" ( / ))
      | Mod -> arith (nonzero "modulo" ( mod ))
      | Band -> arith ( land )
      | Bor -> arith ( lor )
      | Bxor -> arith ( lxor )
      | Shl -> arith ( lsl )
      | Shr -> arith ( asr )
      | Eq | Ne | Lt | Le | Gt | Ge | Land | Lor -> assert false)
  | Ternary (c, a, b) ->
      let cc = comp_cond ctx c and fa = comp_i ctx a and fb = comp_i ctx b in
      fun fr ->
        cost.Cost.int_ops <- cost.Cost.int_ops + 1;
        if cc fr then fa fr else fb fr
  | Call (name, args) -> (
      match Builtins.find name with
      | Some b -> (
          let flops = b.Builtins.flops in
          match (b.Builtins.fn, List.map (comp_i ctx) args) with
          | Builtins.I1 g, [ a1 ] ->
              fun fr ->
                cost.Cost.int_ops <- cost.Cost.int_ops + flops;
                g (a1 fr)
          | Builtins.I2 g, [ a1; a2 ] ->
              fun fr ->
                cost.Cost.int_ops <- cost.Cost.int_ops + flops;
                g (a1 fr) (a2 fr)
          | _ -> Loc.error e.eloc "unsupported builtin arity for %s" name)
      | None -> (
          match comp_call ctx e.eloc name args ~in_expr:true with
          | Some (Frame.Int_slot k), call -> fun fr -> Array.unsafe_get (call fr).Frame.ints k
          | _ -> assert false (* typed Tint *)))
  | Float_lit _ -> assert false (* typed Tdouble *)

(* A condition tested the C way: a double is true when it is non-zero. *)
and comp_cond ctx e : Frame.t -> bool =
  let cost = ctx.cost in
  match e.edesc with
  | Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), x, y) ->
      if ty_of ctx x = Tdouble || ty_of ctx y = Tdouble then begin
        let fx = comp_f ctx x and fy = comp_f ctx y in
        let cmp : float -> float -> bool =
          match op with
          | Eq -> ( = )
          | Ne -> ( <> )
          | Lt -> ( < )
          | Le -> ( <= )
          | Gt -> ( > )
          | Ge -> ( >= )
          | _ -> assert false
        in
        fun fr ->
          cost.Cost.flops <- cost.Cost.flops + 1;
          cmp (fx fr) (fy fr)
      end
      else begin
        let fx = comp_i ctx x and fy = comp_i ctx y in
        let cmp : int -> int -> bool =
          match op with
          | Eq -> ( = )
          | Ne -> ( <> )
          | Lt -> ( < )
          | Le -> ( <= )
          | Gt -> ( > )
          | Ge -> ( >= )
          | _ -> assert false
        in
        fun fr ->
          cost.Cost.int_ops <- cost.Cost.int_ops + 1;
          cmp (fx fr) (fy fr)
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
        let f = comp_f ctx x in
        fun fr ->
          cost.Cost.flops <- cost.Cost.flops + 1;
          f fr = 0.0
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
          let f = comp_f_native ctx e in
          fun fr -> f fr <> 0.0
      | _ ->
          let f = comp_i ctx e in
          fun fr -> f fr <> 0)

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
          Array.iter (fun bind -> bind fr callee) binds;
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
      let f = comp_i ctx arg in
      fun fr callee -> Array.unsafe_set callee.Frame.ints k (f fr)
  | Frame.Float_slot k ->
      let f = comp_f ctx arg in
      fun fr callee -> Array.unsafe_set callee.Frame.floats k (f fr)

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
      if ty = Tint then begin
        let f = comp_i ctx init in
        let i = int_index (Frame.Layout.declare ctx.layout s.sloc name ty) in
        fun fr -> Array.unsafe_set fr.Frame.ints i (f fr)
      end
      else
        let f = comp_f ctx init in
        match Frame.Layout.declare ctx.layout s.sloc name ty with
        | Frame.Float_slot i -> fun fr -> Array.unsafe_set fr.Frame.floats i (f fr)
        | _ -> Loc.error s.sloc "unsupported declaration of %s" name)
  | Sarray_decl (elem, name, len) -> (
      if ctx.host_ctx = None then
        Loc.error s.sloc "array declaration of %s not allowed inside a kernel" name;
      let n = comp_i ctx len in
      let slot = Frame.Layout.declare ctx.layout s.sloc name (Tarray elem) in
      let bind fr make =
        let n = n fr in
        if n < 0 then Loc.error s.sloc "negative array length for %s" name;
        Frame.set_view fr slot (make n)
      in
      match elem with
      | Eint -> fun fr -> bind fr (fun n -> View.of_int_array ~name (Array.make n 0))
      | Edouble -> fun fr -> bind fr (fun n -> View.of_float_array ~name (Array.make n 0.0)))
  | Sassign (Lvar v, op, rhs) -> (
      match slot_of ctx s.sloc v with
      | Frame.Int_slot i, _ ->
          let f = comp_i ctx rhs in
          if op = Set then fun fr -> Array.unsafe_set fr.Frame.ints i (f fr)
          else
            let g = apply_binop_assign_int s.sloc op in
            fun fr ->
              cost.Cost.int_ops <- cost.Cost.int_ops + 1;
              Array.unsafe_set fr.Frame.ints i (g (Array.unsafe_get fr.Frame.ints i) (f fr))
      | Frame.Float_slot i, _ ->
          let f = comp_f ctx rhs in
          if op = Set then fun fr -> Array.unsafe_set fr.Frame.floats i (f fr)
          else
            let g = apply_binop_assign_float op in
            fun fr ->
              cost.Cost.flops <- cost.Cost.flops + 1;
              Array.unsafe_set fr.Frame.floats i (g (Array.unsafe_get fr.Frame.floats i) (f fr))
      | Frame.View_slot _, _ -> Loc.error s.sloc "cannot assign whole array %s" v)
  | Sassign (Lindex (a, idx), op, rhs) ->
      let vi, elem = view_slot_of ctx s.sloc a in
      let ci = comp_i ctx idx in
      let width = elem_ty_size elem in
      let bump_w = charge ctx (ctx.classify a idx) width in
      (match elem with
      | Edouble ->
          let f = comp_f ctx rhs in
          if op = Set then
            fun fr ->
              bump_w ();
              (Frame.get_view fr vi).View.set_f (ci fr) (f fr)
          else
            let g = apply_binop_assign_float op in
            let bump_r = charge ctx (ctx.classify a idx) width in
            fun fr ->
              cost.Cost.flops <- cost.Cost.flops + 1;
              bump_r ();
              bump_w ();
              let view = Frame.get_view fr vi in
              let i = ci fr in
              view.View.set_f i (g (view.View.get_f i) (f fr))
      | Eint ->
          let f = comp_i ctx rhs in
          if op = Set then
            fun fr ->
              bump_w ();
              (Frame.get_view fr vi).View.set_i (ci fr) (f fr)
          else
            let g = apply_binop_assign_int s.sloc op in
            let bump_r = charge ctx (ctx.classify a idx) width in
            fun fr ->
              cost.Cost.int_ops <- cost.Cost.int_ops + 1;
              bump_r ();
              bump_w ();
              let view = Frame.get_view fr vi in
              let i = ci fr in
              view.View.set_i i (g (view.View.get_i i) (f fr)))
  | Sincr (lv, d) ->
      comp_stmt_exn ctx
        { s with sdesc = Sassign (lv, Add_set, { edesc = Int_lit d; eloc = s.sloc }) }
  | Sexpr { edesc = Call (name, args); eloc } when not (Builtins.is_builtin name) ->
      (* Calls to void user functions are legal as statements. *)
      let _, call = comp_call ctx eloc name args ~in_expr:false in
      fun fr -> ignore (call fr)
  | Sexpr e ->
      let t = ty_of ctx e in
      if t = Tdouble then begin
        let f = comp_f ctx e in
        fun fr -> ignore (f fr)
      end
      else begin
        let f = comp_i ctx e in
        fun fr -> ignore (f fr)
      end
  | Sif (c, then_, else_) ->
      let cc = comp_cond ctx c in
      let ct = comp_block ctx then_ and ce = comp_block ctx else_ in
      fun fr ->
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
      let init, cond, update, cb =
        Frame.Layout.scoped ctx.layout (fun () ->
            let init = match hdr.for_init with Some s' -> comp_stmt ctx s' | None -> nop in
            let cond = match hdr.for_cond with Some e -> comp_cond ctx e | None -> fun _ -> true in
            let update = match hdr.for_update with Some s' -> comp_stmt ctx s' | None -> nop in
            (init, cond, update, comp_block_no_scope ctx body))
      in
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
         with Brk -> ())
  | Sreturn e -> (
      match (ctx.host_ctx, e, ctx.ret) with
      | None, _, _ -> Loc.error s.sloc "return is not allowed inside a kernel"
      | Some _, None, _ -> fun _ -> raise Return
      | Some _, Some e, Some (Frame.Int_slot k) ->
          let f = comp_i ctx e in
          fun fr ->
            Array.unsafe_set fr.Frame.ints k (f fr);
            raise Return
      | Some _, Some e, Some (Frame.Float_slot k) ->
          let f = comp_f ctx e in
          fun fr ->
            Array.unsafe_set fr.Frame.floats k (f fr);
            raise Return
      | Some _, Some _, _ -> Loc.error s.sloc "return with value in void function")
  | Sbreak -> fun _ -> raise Brk
  | Scontinue -> fun _ -> raise Cnt
  | Sblock body -> comp_block ctx body
  | Spragma (d, inner) -> (
      match ctx.host_ctx with
      | Some host -> comp_host_pragma ctx host s d inner
      | None -> comp_kernel_pragma ctx s d inner)

and comp_kernel_pragma ctx s d inner =
  let cost = ctx.cost in
  match d with
  | Dreduction_to_array { rta_op; rta_array } -> (
      let idx, contrib = extract_reduction rta_op inner in
      let vi, elem = view_slot_of ctx s.sloc rta_array in
      let ci = comp_i ctx idx in
      let width = elem_ty_size elem in
      (* A reduction update behaves like an atomic scatter: charge one
         transaction plus the combine op. *)
      match elem with
      | Edouble ->
          let cf = comp_f ctx contrib in
          fun fr ->
            cost.Cost.flops <- cost.Cost.flops + 1;
            cost.Cost.random_accesses <- cost.Cost.random_accesses + 1;
            cost.Cost.random_bytes <- cost.Cost.random_bytes + width;
            (Frame.get_view fr vi).View.reduce_f rta_op (ci fr) (cf fr)
      | Eint ->
          let cf = comp_i ctx contrib in
          fun fr ->
            cost.Cost.int_ops <- cost.Cost.int_ops + 1;
            cost.Cost.random_accesses <- cost.Cost.random_accesses + 1;
            cost.Cost.random_bytes <- cost.Cost.random_bytes + width;
            (Frame.get_view fr vi).View.reduce_i rta_op (ci fr) (cf fr))
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
  let loop_loc = proto.Loop_info.loop_loc in
  let lo = comp_i ctx proto.Loop_info.lower in
  let hi = comp_i ctx proto.Loop_info.upper in
  let iv, body =
    Frame.Layout.scoped ctx.layout (fun () ->
        let iv = Frame.Layout.declare ctx.layout loop_loc proto.Loop_info.loop_var Tint in
        (int_index iv, comp_block ctx proto.Loop_info.body))
  in
  let run fr =
    let lo = lo fr in
    let hi = hi fr in
    for i = lo to hi - 1 do
      Array.unsafe_set fr.Frame.ints iv i;
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
  let iv_slot = Frame.Layout.declare layout loop_loc loop.Loop_info.loop_var Tint in
  let param_slots =
    List.map (fun (name, ty) -> (name, Frame.Layout.declare layout loop_loc name ty, ty)) params
  in
  let body = comp_block ctx loop.Loop_info.body in
  let iv_index = int_index iv_slot in
  {
    run_iter =
      (fun fr i ->
        Array.unsafe_set fr.Frame.ints iv_index i;
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

let env_ctx env =
  {
    layout = env.scope;
    cost = env.host.sink;
    classify = host_classify;
    host_ctx = Some env.host;
    ret = None;
  }

let eval_int env e = comp_i (env_ctx env) e env.frame
let eval_float env e = comp_f (env_ctx env) e env.frame
let program_of env = env.host.prog
