open Mgacc_minic
module Kc = Kernel_compile

type value = Vint of int | Vfloat of float
type env = Kc.env

type hooks = Kc.hooks = {
  on_parallel_loop : env -> Mgacc_analysis.Loop_info.t -> unit;
  on_data_enter : env -> Ast.clause list -> unit;
  on_data_exit : env -> Ast.clause list -> unit;
  on_update_host : env -> Ast.subarray list -> unit;
  on_update_device : env -> Ast.subarray list -> unit;
}

let eval_int = Kc.eval_int
let eval_float = Kc.eval_float
let program_of = Kc.program_of
let lookup (env : env) name = Frame.Layout.lookup env.Kc.scope name

let find_array_opt env name =
  match lookup env name with
  | Some (Frame.View_slot i, _) -> env.Kc.frame.Frame.views.(i)
  | _ -> None

let find_array env name =
  match find_array_opt env name with Some v -> v | None -> raise Not_found

let scalar_slot env name what =
  match lookup env name with
  | Some (((Frame.Int_slot _ | Frame.Float_slot _) as slot), _) -> slot
  | Some (Frame.View_slot _, _) ->
      invalid_arg (Printf.sprintf "Host_interp.%s: %s is an array" what name)
  | None -> Loc.error Loc.dummy "undefined variable %s" name

let get_scalar env name =
  match scalar_slot env name "get_scalar" with
  | Frame.Int_slot _ as s -> Vint (Frame.get_int env.Kc.frame s)
  | s -> Vfloat (Frame.get_float env.Kc.frame s)

let set_scalar env name v =
  match (scalar_slot env name "set_scalar", v) with
  | (Frame.Int_slot _ as s), Vint n -> Frame.set_int env.Kc.frame s n
  | (Frame.Int_slot _ as s), Vfloat f -> Frame.set_int env.Kc.frame s (int_of_float f)
  | s, Vint n -> Frame.set_float env.Kc.frame s (float_of_int n)
  | s, Vfloat f -> Frame.set_float env.Kc.frame s f

let run_loop_sequentially env (loop : Mgacc_analysis.Loop_info.t) =
  match env.Kc.seq with
  | Some (loc, run) when loc = loop.Mgacc_analysis.Loop_info.loop_loc -> run env.Kc.frame
  | _ -> invalid_arg "Host_interp.run_loop_sequentially: not the loop of this hook site"

let sequential_hooks =
  {
    on_parallel_loop = run_loop_sequentially;
    on_data_enter = (fun _ _ -> ());
    on_data_exit = (fun _ _ -> ());
    on_update_host = (fun _ _ -> ());
    on_update_device = (fun _ _ -> ());
  }

let run_program ?(hooks = sequential_hooks) prog =
  Typecheck.check_program prog;
  match Ast.find_func prog "main" with
  | None -> Loc.error Loc.dummy "program has no main function"
  | Some f ->
      if f.Ast.fparams <> [] then Loc.error f.Ast.floc "main must take no parameters";
      Kc.run_main hooks prog f
