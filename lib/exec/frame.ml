open Mgacc_minic

type slot = Int_slot of int | Float_slot of int | View_slot of int

type t = { ints : int array; floats : float array; views : View.t option array }

module Layout = struct
  type t = {
    mutable n_ints : int;
    mutable n_floats : int;
    mutable n_views : int;
    mutable scopes : (string, slot * Ast.typ) Hashtbl.t list;
    mutable int_consts : (int * int) list;
    mutable float_consts : (int * float) list;
  }

  let create () =
    {
      n_ints = 0;
      n_floats = 0;
      n_views = 0;
      scopes = [ Hashtbl.create 8 ];
      int_consts = [];
      float_consts = [];
    }

  let scoped t f =
    let outer = t.scopes in
    t.scopes <- Hashtbl.create 8 :: outer;
    Fun.protect ~finally:(fun () -> t.scopes <- outer) f

  let reserve t = function
    | Ast.Tint ->
        t.n_ints <- t.n_ints + 1;
        Int_slot (t.n_ints - 1)
    | Ast.Tdouble ->
        t.n_floats <- t.n_floats + 1;
        Float_slot (t.n_floats - 1)
    | Ast.Tarray _ ->
        t.n_views <- t.n_views + 1;
        View_slot (t.n_views - 1)
    | Ast.Tvoid -> invalid_arg "Frame.Layout.reserve: void slot"

  let const_int t n =
    t.n_ints <- t.n_ints + 1;
    t.int_consts <- (t.n_ints - 1, n) :: t.int_consts;
    t.n_ints - 1

  let const_float t v =
    t.n_floats <- t.n_floats + 1;
    t.float_consts <- (t.n_floats - 1, v) :: t.float_consts;
    t.n_floats - 1

  let declare ?slot t loc name ty =
    let scope = List.hd t.scopes in
    if Hashtbl.mem scope name then Loc.error loc "redeclaration of %s" name;
    if ty = Ast.Tvoid then Loc.error loc "void variable %s" name;
    let slot = match slot with Some s -> s | None -> reserve t ty in
    Hashtbl.replace scope name (slot, ty);
    slot

  let snapshot t =
    let merged = Hashtbl.create 16 in
    List.iter (Hashtbl.iter (Hashtbl.replace merged)) (List.rev t.scopes);
    { t with scopes = [ merged ] }

  let beyond t ~ints ~floats =
    { (snapshot t) with n_ints = max ints t.n_ints; n_floats = max floats t.n_floats }

  let lookup t name = List.find_map (fun scope -> Hashtbl.find_opt scope name) t.scopes
end

let create (layout : Layout.t) =
  let t =
    {
      ints = Array.make (max 1 layout.Layout.n_ints) 0;
      floats = Array.make (max 1 layout.Layout.n_floats) 0.0;
      views = Array.make (max 1 layout.Layout.n_views) None;
    }
  in
  List.iter (fun (i, n) -> t.ints.(i) <- n) layout.Layout.int_consts;
  List.iter (fun (i, v) -> t.floats.(i) <- v) layout.Layout.float_consts;
  t

let set_view t slot v =
  match slot with
  | View_slot i -> t.views.(i) <- Some v
  | Int_slot _ | Float_slot _ -> invalid_arg "Frame.set_view: not a view slot"

let get_view t i =
  match t.views.(i) with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Frame.get_view: unbound view slot %d" i)

let set_int t slot v =
  match slot with
  | Int_slot i -> t.ints.(i) <- v
  | Float_slot _ | View_slot _ -> invalid_arg "Frame.set_int: not an int slot"

let set_float t slot v =
  match slot with
  | Float_slot i -> t.floats.(i) <- v
  | Int_slot _ | View_slot _ -> invalid_arg "Frame.set_float: not a float slot"

let get_int t = function
  | Int_slot i -> t.ints.(i)
  | Float_slot _ | View_slot _ -> invalid_arg "Frame.get_int: not an int slot"

let get_float t = function
  | Float_slot i -> t.floats.(i)
  | Int_slot _ | View_slot _ -> invalid_arg "Frame.get_float: not a float slot"
