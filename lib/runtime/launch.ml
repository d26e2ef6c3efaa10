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

exception Window_violation of {
  array : string;
  index : int;
  gpu : int;
  what : string;
  loc : Loc.t;  (** the parallel loop whose directive misses the access *)
}

type gpu_run = { gpu : int; iterations : int; cost : Cost.t }

(* ------------------------------------------------------------------ *)
(* Views implementing the translator's instrumentation.                *)
(* ------------------------------------------------------------------ *)

(* Replicated array on one GPU: direct access, dirty marking on writes. The
   dirty-bit instrumentation the translator inserts costs a couple of
   integer ops per write, charged to the kernel's cost record. *)
let replicated_view (da : Darray.t) ~gpu ~(dirty : Dirty.t option) ~(cost : Cost.t) =
  let buf = Darray.buf_for da ~gpu in
  let name = da.Darray.name and length = da.Darray.length in
  let wrote =
    Option.map
      (fun d i ->
        cost.Cost.int_ops <- cost.Cost.int_ops + 2;
        Dirty.mark d i)
      dirty
  in
  let mark i = match wrote with Some w -> w i | None -> () in
  let whole = (0, length) in
  match da.Darray.elem with
  | Ast.Edouble ->
      let data = Memory.float_data buf in
      View.make ~name ~elem:Ast.Edouble ~length ~fdata:data ~read:whole ~write:whole ?wrote
        ~get_f:(fun i -> data.(i))
        ~set_f:(fun i v ->
          data.(i) <- v;
          mark i)
        ()
  | Ast.Eint ->
      let data = Memory.int_data buf in
      View.make ~name ~elem:Ast.Eint ~length ~idata:data ~read:whole ~write:whole ?wrote
        ~get_i:(fun i -> data.(i))
        ~set_i:(fun i v ->
          data.(i) <- v;
          mark i)
        ()

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
  let plain_write _ _ = invalid_arg (name ^ ": plain write to a reduction destination") in
  match da.Darray.elem with
  | Ast.Edouble ->
      let data = Memory.float_data buf in
      View.make ~name ~elem:Ast.Edouble ~length ~fdata:data ~read:(0, length)
        ~get_f:(fun i -> data.(i))
        ~set_f:plain_write
        ~reduce_f:(fun op i v ->
          check op;
          Reduction.reduce_f red ~gpu i v)
        ()
  | Ast.Eint ->
      let data = Memory.int_data buf in
      View.make ~name ~elem:Ast.Eint ~length ~idata:data ~read:(0, length)
        ~get_i:(fun i -> data.(i))
        ~set_i:plain_write
        ~reduce_i:(fun op i v ->
          check op;
          Reduction.reduce_i red ~gpu i v)
        ()

(* Distributed array: logical indices translate into the partition; reads
   must stay in the declared window; writes are ownership-checked. When the
   check is eliminated, an out-of-block write is a directive violation. A
   1-D part is a window of the array, so in-window reads and owned writes
   go straight to the buffer; a 2-D part is a packed [trow_win x tcol_win]
   box whose membership and offsets go through the tile-aware [Darray]
   helpers, so every access takes the closures. The instrumentation cost
   model is identical in both (the 2-D index arithmetic folds into the same
   address computation on real hardware). *)
let distributed_view (da : Darray.t) ~gpu ~miss_check ~(cost : Cost.t) ~loc =
  let part = Darray.part_for da ~gpu in
  let name = da.Darray.name and length = da.Darray.length in
  let violation i what = raise (Window_violation { array = name; index = i; gpu; what; loc }) in
  let contains, owns, off, read, write =
    match (part.Darray.tile, da.Darray.state) with
    | Some _, Darray.Distributed { Darray.spec; _ } ->
        ( (fun i -> Darray.part_contains spec part i),
          (fun i -> Darray.part_owns spec part i),
          (fun i -> Darray.offset_in_part spec part i),
          (0, 0),
          (0, 0) )
    | Some _, _ -> assert false
    | None, _ ->
        let win = part.Darray.window and own = part.Darray.own in
        let lo = win.Interval.lo in
        ( (fun i -> Interval.contains win i),
          (fun i -> Interval.contains own i),
          (fun i -> i - lo),
          (lo, win.Interval.hi),
          (own.Interval.lo, own.Interval.hi) )
  in
  let block = if part.Darray.tile = None then "block" else "tile" in
  let base = fst read in
  let wrote = if miss_check then Some (fun _ -> cost.Cost.int_ops <- cost.Cost.int_ops + 1) else None in
  let check_read i = if not (contains i) then violation i "read outside window" in
  (* Whether a write of [i] lands in the buffer. Counts the miss check; a
     write outside the owned block is buffered when checked for, and a
     violation when not. *)
  let lands i =
    if miss_check then cost.Cost.int_ops <- cost.Cost.int_ops + 1;
    owns i
    || (not miss_check)
       && violation i (Printf.sprintf "write outside owned %s (miss checks eliminated)" block)
  in
  (* [width] is the miss-buffer entry: the value plus a 4-byte index. *)
  let miss ~width i v =
    cost.Cost.random_accesses <- cost.Cost.random_accesses + 1;
    cost.Cost.random_bytes <- cost.Cost.random_bytes + width;
    Miss_buffer.record part.Darray.miss i v
  in
  match da.Darray.elem with
  | Ast.Edouble ->
      let data = Memory.float_data part.Darray.buf in
      View.make ~name ~elem:Ast.Edouble ~length ~fdata:data ~base ~read ~write ?wrote
        ~get_f:(fun i ->
          check_read i;
          data.(off i))
        ~set_f:(fun i v ->
          if lands i then data.(off i) <- v else miss ~width:12 i (Miss_buffer.Vf v))
        ()
  | Ast.Eint ->
      let data = Memory.int_data part.Darray.buf in
      View.make ~name ~elem:Ast.Eint ~length ~idata:data ~base ~read ~write ?wrote
        ~get_i:(fun i ->
          check_read i;
          data.(off i))
        ~set_i:(fun i v -> if lands i then data.(off i) <- v else miss ~width:8 i (Miss_buffer.Vi v))
        ()

let view_for plan ~gpu ~cost ~get_darray ~get_reduction name =
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
          replicated_view da ~gpu ~dirty ~cost
      | Mgacc_analysis.Array_config.Distributed ->
          distributed_view da ~gpu ~miss_check:(Kernel_plan.needs_miss_check plan name) ~cost
            ~loc:plan.Kernel_plan.loop.Mgacc_analysis.Loop_info.loop_loc)

(* ------------------------------------------------------------------ *)
(* Execution.                                                          *)
(* ------------------------------------------------------------------ *)

let run_on_gpus ?col_bounds plan compiled ~ranges ~get_scalar ~get_darray ~get_reduction =
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
                  (view_for plan ~gpu ~cost:compiled.kc.Kernel_compile.cost ~get_darray
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
