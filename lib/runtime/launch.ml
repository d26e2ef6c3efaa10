open Mgacc_minic
module Cost = Mgacc_gpusim.Cost
module Memory = Mgacc_gpusim.Memory
module View = Mgacc_exec.View
module Frame = Mgacc_exec.Frame
module Kernel_compile = Mgacc_exec.Kernel_compile
module Host_interp = Mgacc_exec.Host_interp
module Kernel_plan = Mgacc_translator.Kernel_plan
module Tile2d = Mgacc_analysis.Tile2d
module Interval = Mgacc_util.Interval

type compiled = { kc : Kernel_compile.t; param_types : (string * Ast.typ) list }

let bind_scalar frame slot v =
  match (slot, v) with
  | Frame.Int_slot _, Host_interp.Vint n -> Frame.set_int frame slot n
  | Frame.Int_slot _, Host_interp.Vfloat f -> Frame.set_int frame slot (int_of_float f)
  | _, Host_interp.Vint n -> Frame.set_float frame slot (float_of_int n)
  | _, Host_interp.Vfloat f -> Frame.set_float frame slot f

let scalar_of frame = function
  | Frame.Int_slot _ as slot -> Host_interp.Vint (Frame.get_int frame slot)
  | slot -> Host_interp.Vfloat (Frame.get_float frame slot)

let param_types env names =
  List.map
    (fun name ->
      match Host_interp.find_array_opt env name with
      | Some view -> (name, Ast.Tarray view.View.elem)
      | None -> (
          match Host_interp.get_scalar env name with
          | Host_interp.Vint _ -> (name, Ast.Tint)
          | Host_interp.Vfloat _ -> (name, Ast.Tdouble)))
    names

let compile_kernel plan ~param_types =
  (* Under a 2-D plan the inner column loop is restricted to
     [[__col_lo, __col_hi)], bound per GPU at launch; with the sentinel
     bounds the kernel behaves exactly like the unrestricted one. *)
  let loop, param_types =
    match plan.Kernel_plan.tile2d with
    | Some t2 ->
        ( Tile2d.restrict_columns plan.Kernel_plan.loop ~inner_var:t2.Tile2d.inner_var,
          param_types @ [ (Tile2d.col_lo_param, Ast.Tint); (Tile2d.col_hi_param, Ast.Tint) ] )
    | None -> (plan.Kernel_plan.loop, param_types)
  in
  let kc =
    Kernel_compile.compile ~loop ~params:param_types ~classify:(Kernel_plan.classifier plan)
  in
  { kc; param_types }

exception Window_violation of { array : string; index : int; gpu : int; what : string }

type gpu_run = { gpu : int; iterations : int; cost : Cost.t }

(* ------------------------------------------------------------------ *)
(* Views implementing the translator's instrumentation.                *)
(* ------------------------------------------------------------------ *)

let no_reduce_f name : Ast.redop -> int -> float -> unit =
 fun _ _ _ -> invalid_arg (Printf.sprintf "array %s is not a reduction destination" name)

let no_reduce_i name : Ast.redop -> int -> int -> unit =
 fun _ _ _ -> invalid_arg (Printf.sprintf "array %s is not a reduction destination" name)

(* Replicated array on one GPU: direct access, dirty marking on writes. The
   dirty-bit instrumentation the translator inserts costs a couple of
   integer ops per write, charged to the kernel's cost record. *)
let replicated_view (da : Darray.t) ~gpu ~(dirty : Dirty.t option) ~(cost : Cost.t) =
  let buf = Darray.buf_for da ~gpu in
  let name = da.Darray.name and length = da.Darray.length in
  let mark =
    match dirty with
    | Some d ->
        fun i ->
          cost.Cost.int_ops <- cost.Cost.int_ops + 2;
          Dirty.mark d i
    | None -> fun _ -> ()
  in
  match da.Darray.elem with
  | Ast.Edouble ->
      let data = Memory.float_data buf in
      {
        View.name;
        elem = Ast.Edouble;
        length;
        get_f = (fun i -> data.(i));
        set_f =
          (fun i v ->
            data.(i) <- v;
            mark i);
        get_i = (fun _ -> invalid_arg (name ^ ": int access on double array"));
        set_i = (fun _ _ -> invalid_arg (name ^ ": int access on double array"));
        reduce_f = no_reduce_f name;
        reduce_i = no_reduce_i name;
      }
  | Ast.Eint ->
      let data = Memory.int_data buf in
      {
        View.name;
        elem = Ast.Eint;
        length;
        get_i = (fun i -> data.(i));
        set_i =
          (fun i v ->
            data.(i) <- v;
            mark i);
        get_f = (fun _ -> invalid_arg (name ^ ": double access on int array"));
        set_f = (fun _ _ -> invalid_arg (name ^ ": double access on int array"));
        reduce_f = no_reduce_f name;
        reduce_i = no_reduce_i name;
      }

(* Replicated array that is a reduction destination: reads see the
   pre-loop values; reduction updates go to the GPU's partial. *)
let reduction_view (da : Darray.t) ~gpu (red : Reduction.t) =
  let buf = Darray.buf_for da ~gpu in
  let name = da.Darray.name and length = da.Darray.length in
  let declared = Reduction.op red in
  let check op =
    if op <> declared then
      invalid_arg
        (Printf.sprintf "array %s: reduction operator mismatch (%s declared)" name
           (Ast.redop_to_string declared))
  in
  match da.Darray.elem with
  | Ast.Edouble ->
      let data = Memory.float_data buf in
      {
        View.name;
        elem = Ast.Edouble;
        length;
        get_f = (fun i -> data.(i));
        set_f = (fun _ _ -> invalid_arg (name ^ ": plain write to a reduction destination"));
        get_i = (fun _ -> invalid_arg (name ^ ": int access on double array"));
        set_i = (fun _ _ -> invalid_arg (name ^ ": int access on double array"));
        reduce_f =
          (fun op i v ->
            check op;
            Reduction.reduce_f red ~gpu i v);
        reduce_i = no_reduce_i name;
      }
  | Ast.Eint ->
      let data = Memory.int_data buf in
      {
        View.name;
        elem = Ast.Eint;
        length;
        get_i = (fun i -> data.(i));
        set_i = (fun _ _ -> invalid_arg (name ^ ": plain write to a reduction destination"));
        get_f = (fun _ -> invalid_arg (name ^ ": double access on int array"));
        set_f = (fun _ _ -> invalid_arg (name ^ ": double access on int array"));
        reduce_f = no_reduce_f name;
        reduce_i =
          (fun op i v ->
            check op;
            Reduction.reduce_i red ~gpu i v);
      }

(* 2-D variant: the part's buffer is a packed [trow_win x tcol_win] box;
   membership and offsets go through the tile-aware [Darray] helpers. The
   instrumentation cost model is identical to the 1-D view (the 2-D index
   arithmetic folds into the same address computation on real hardware). *)
let tiled_distributed_view (da : Darray.t) (part : Darray.part) ~gpu ~miss_check ~(cost : Cost.t) =
  let name = da.Darray.name and length = da.Darray.length in
  let spec =
    match da.Darray.state with Darray.Distributed d -> d.Darray.spec | _ -> assert false
  in
  let off i = Darray.offset_in_part spec part i in
  let owns i = Darray.part_owns spec part i in
  let check_read i =
    if not (Darray.part_contains spec part i) then
      raise (Window_violation { array = name; index = i; gpu; what = "read outside window" })
  in
  match da.Darray.elem with
  | Ast.Edouble ->
      let data = Memory.float_data part.Darray.buf in
      let set_f i v =
        if miss_check then begin
          cost.Cost.int_ops <- cost.Cost.int_ops + 1;
          if owns i then data.(off i) <- v
          else begin
            cost.Cost.random_accesses <- cost.Cost.random_accesses + 1;
            cost.Cost.random_bytes <- cost.Cost.random_bytes + 12;
            Miss_buffer.record part.Darray.miss i (Miss_buffer.Vf v)
          end
        end
        else if owns i then data.(off i) <- v
        else
          raise
            (Window_violation
               { array = name; index = i; gpu; what = "write outside owned tile (miss checks eliminated)" })
      in
      {
        View.name;
        elem = Ast.Edouble;
        length;
        get_f =
          (fun i ->
            check_read i;
            data.(off i));
        set_f;
        get_i = (fun _ -> invalid_arg (name ^ ": int access on double array"));
        set_i = (fun _ _ -> invalid_arg (name ^ ": int access on double array"));
        reduce_f = no_reduce_f name;
        reduce_i = no_reduce_i name;
      }
  | Ast.Eint ->
      let data = Memory.int_data part.Darray.buf in
      let set_i i v =
        if miss_check then begin
          cost.Cost.int_ops <- cost.Cost.int_ops + 1;
          if owns i then data.(off i) <- v
          else begin
            cost.Cost.random_accesses <- cost.Cost.random_accesses + 1;
            cost.Cost.random_bytes <- cost.Cost.random_bytes + 8;
            Miss_buffer.record part.Darray.miss i (Miss_buffer.Vi v)
          end
        end
        else if owns i then data.(off i) <- v
        else
          raise
            (Window_violation
               { array = name; index = i; gpu; what = "write outside owned tile (miss checks eliminated)" })
      in
      {
        View.name;
        elem = Ast.Eint;
        length;
        get_i =
          (fun i ->
            check_read i;
            data.(off i));
        set_i;
        get_f = (fun _ -> invalid_arg (name ^ ": double access on int array"));
        set_f = (fun _ _ -> invalid_arg (name ^ ": double access on int array"));
        reduce_f = no_reduce_f name;
        reduce_i = no_reduce_i name;
      }

(* Distributed array: logical indices translate into the partition; reads
   must stay in the declared window; writes are ownership-checked. When the
   check is eliminated, an out-of-block write is a directive violation. *)
let distributed_view (da : Darray.t) ~gpu ~miss_check ~(cost : Cost.t) =
  let part = Darray.part_for da ~gpu in
  let name = da.Darray.name and length = da.Darray.length in
  match part.Darray.tile with
  | Some _ -> tiled_distributed_view da part ~gpu ~miss_check ~cost
  | None ->
  let win = part.Darray.window and own = part.Darray.own in
  let lo = win.Interval.lo in
  let check_read i =
    if not (Interval.contains win i) then
      raise (Window_violation { array = name; index = i; gpu; what = "read outside window" })
  in
  match da.Darray.elem with
  | Ast.Edouble ->
      let data = Memory.float_data part.Darray.buf in
      let set_f i v =
        if miss_check then begin
          cost.Cost.int_ops <- cost.Cost.int_ops + 1;
          if Interval.contains own i then data.(i - lo) <- v
          else begin
            cost.Cost.random_accesses <- cost.Cost.random_accesses + 1;
            cost.Cost.random_bytes <- cost.Cost.random_bytes + 12;
            Miss_buffer.record part.Darray.miss i (Miss_buffer.Vf v)
          end
        end
        else if Interval.contains own i then data.(i - lo) <- v
        else raise (Window_violation { array = name; index = i; gpu; what = "write outside owned block (miss checks eliminated)" })
      in
      {
        View.name;
        elem = Ast.Edouble;
        length;
        get_f =
          (fun i ->
            check_read i;
            data.(i - lo));
        set_f;
        get_i = (fun _ -> invalid_arg (name ^ ": int access on double array"));
        set_i = (fun _ _ -> invalid_arg (name ^ ": int access on double array"));
        reduce_f = no_reduce_f name;
        reduce_i = no_reduce_i name;
      }
  | Ast.Eint ->
      let data = Memory.int_data part.Darray.buf in
      let set_i i v =
        if miss_check then begin
          cost.Cost.int_ops <- cost.Cost.int_ops + 1;
          if Interval.contains own i then data.(i - lo) <- v
          else begin
            cost.Cost.random_accesses <- cost.Cost.random_accesses + 1;
            cost.Cost.random_bytes <- cost.Cost.random_bytes + 8;
            Miss_buffer.record part.Darray.miss i (Miss_buffer.Vi v)
          end
        end
        else if Interval.contains own i then data.(i - lo) <- v
        else raise (Window_violation { array = name; index = i; gpu; what = "write outside owned block (miss checks eliminated)" })
      in
      {
        View.name;
        elem = Ast.Eint;
        length;
        get_i =
          (fun i ->
            check_read i;
            data.(i - lo));
        set_i;
        get_f = (fun _ -> invalid_arg (name ^ ": double access on int array"));
        set_f = (fun _ _ -> invalid_arg (name ^ ": double access on int array"));
        reduce_f = no_reduce_f name;
        reduce_i = no_reduce_i name;
      }

let view_for cfg plan ~gpu ~cost ~get_darray ~get_reduction name =
  let da = get_darray name in
  match get_reduction name with
  | Some red -> reduction_view da ~gpu red
  | None -> (
      match Kernel_plan.placement_of plan name with
      | Mgacc_analysis.Array_config.Replicated ->
          let dirty =
            match da.Darray.state with
            | Darray.Replicated r -> r.Darray.dirty.(gpu)
            | _ -> None
          in
          ignore cfg;
          replicated_view da ~gpu ~dirty ~cost
      | Mgacc_analysis.Array_config.Distributed ->
          distributed_view da ~gpu ~miss_check:(Kernel_plan.needs_miss_check plan name) ~cost)

(* ------------------------------------------------------------------ *)
(* Execution.                                                          *)
(* ------------------------------------------------------------------ *)

let run_on_gpus cfg ?col_bounds plan compiled ~ranges ~get_scalar ~get_darray ~get_reduction =
  let loop = plan.Kernel_plan.loop in
  let scalar_reductions = loop.Mgacc_analysis.Loop_info.scalar_reductions in
  let runs = ref [] in
  let partial_frames = ref [] in
  Array.iteri
    (fun gpu range ->
      (* Empty ranges launch nothing: no frame, no kernel record, no
         zero-length transfers. Scalar reductions stay correct because a
         missing partial folds as the identity. *)
      let iterations = Task_map.length range in
      if iterations > 0 then begin
        let frame = compiled.kc.Kernel_compile.make_frame () in
        (* Bind parameters. *)
        List.iter
          (fun (name, slot, ty) ->
            match ty with
            | Ast.Tarray _ ->
                Frame.set_view frame slot
                  (view_for cfg plan ~gpu ~cost:compiled.kc.Kernel_compile.cost ~get_darray
                     ~get_reduction name)
            | Ast.Tint when name = Tile2d.col_lo_param ->
                Frame.set_int frame slot
                  (match col_bounds with Some b -> fst b.(gpu) | None -> min_int)
            | Ast.Tint when name = Tile2d.col_hi_param ->
                Frame.set_int frame slot
                  (match col_bounds with Some b -> snd b.(gpu) | None -> max_int)
            | Ast.Tint | Ast.Tdouble -> (
                let red_op =
                  List.find_map
                    (fun (op, v) -> if v = name then Some op else None)
                    scalar_reductions
                in
                match (red_op, ty) with
                | Some op, Ast.Tdouble -> Frame.set_float frame slot (View.redop_identity_f op)
                | Some op, Ast.Tint -> Frame.set_int frame slot (View.redop_identity_i op)
                | None, _ -> bind_scalar frame slot (get_scalar name)
                | Some _, (Ast.Tvoid | Ast.Tarray _) -> assert false)
            | Ast.Tvoid -> assert false)
          compiled.kc.Kernel_compile.params;
        let cost =
          Cost.charged compiled.kc.Kernel_compile.cost (fun () ->
              for i = range.Task_map.start_ to range.Task_map.stop_ - 1 do
                compiled.kc.Kernel_compile.run_iter frame i
              done)
        in
        runs := { gpu; iterations; cost } :: !runs;
        partial_frames := (gpu, frame) :: !partial_frames
      end)
    ranges;
  let scalar_partials =
    List.map
      (fun (op, name) ->
        let slot =
          List.find_map
            (fun (n, slot, _) -> if n = name then Some slot else None)
            compiled.kc.Kernel_compile.params
        in
        match slot with
        | None -> (name, op, [])
        | Some slot ->
            (name, op, List.rev_map (fun (_, frame) -> scalar_of frame slot) !partial_frames))
      scalar_reductions
  in
  (List.rev !runs, scalar_partials)
