type fn =
  | F1 of (float -> float)
  | F2 of (float -> float -> float)
  | I1 of (int -> int)
  | I2 of (int -> int -> int)

type t = { name : string; arity : int; result : Ast.typ; flops : int; fn : fn }

let d1 name flops f = { name; arity = 1; result = Ast.Tdouble; flops; fn = F1 f }
let d2 name flops f = { name; arity = 2; result = Ast.Tdouble; flops; fn = F2 f }
let i1 name flops f = { name; arity = 1; result = Ast.Tint; flops; fn = I1 f }
let i2 name flops f = { name; arity = 2; result = Ast.Tint; flops; fn = I2 f }

let all =
  [
    d1 "sqrt" 4 sqrt;
    d1 "fabs" 1 Float.abs;
    d1 "exp" 8 exp;
    d1 "log" 8 log;
    d2 "pow" 12 Float.pow;
    d1 "sin" 8 sin;
    d1 "cos" 8 cos;
    d1 "floor" 1 floor;
    d1 "ceil" 1 ceil;
    d2 "fmin" 1 Float.min;
    d2 "fmax" 1 Float.max;
    i1 "abs" 1 abs;
    i2 "min" 1 (fun (x : int) y -> min x y);
    i2 "max" 1 (fun (x : int) y -> max x y);
  ]

let find name = List.find_opt (fun b -> b.name = name) all
let is_builtin name = find name <> None

let apply_double name args =
  match (Option.map (fun b -> b.fn) (find name), args) with
  | Some (F1 f), [ x ] -> f x
  | Some (F2 f), [ x; y ] -> f x y
  | _ -> invalid_arg (Printf.sprintf "Builtins.apply_double: %s/%d" name (List.length args))

let apply_int name args =
  match (Option.map (fun b -> b.fn) (find name), args) with
  | Some (I1 f), [ x ] -> f x
  | Some (I2 f), [ x; y ] -> f x y
  | _ -> invalid_arg (Printf.sprintf "Builtins.apply_int: %s/%d" name (List.length args))
