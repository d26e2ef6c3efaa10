(** Whole-program translation: typecheck once, plan every parallel loop.

    Plans are indexed by the source location of the annotated loop, which
    is how the runtime recognizes a loop when the host program reaches
    it (and how kernel compilations are cached across repeated
    executions of the same loop — the reuse that iterative applications
    depend on). *)

open Mgacc_minic

type t

val build : ?options:Kernel_plan.options -> Ast.program -> t
(** Typechecks the program (raising {!Loc.Error} on failure) and builds a
    plan for every parallel loop in every function. Under
    [enable_fusion] the {!Fusion} pass rewrites the program first (and
    the rewrite is re-typechecked); {!program} then returns the fused
    program, which is what the runtime must run. *)

val program : t -> Ast.program
(** The planned program — the fusion pass's output when [enable_fusion]
    is set, the input program unchanged otherwise. *)

val options : t -> Kernel_plan.options

(** {2 Fused-group structure} *)

val fused_members : t -> Mgacc_analysis.Loop_info.t -> int list
(** Original source-loop ids a planned loop executes — [\[loop_id\]]
    for unfused loops, two or more ids for a fused kernel. *)

val kernel_label : t -> Mgacc_analysis.Loop_info.t -> string
(** Launch label: ["loop<id>"] (byte-identical to the historical label
    when fusion is off) or ["loop0+1"] for a fused group, so spans and
    [--blame] keep attributing time to the constituent source loops. *)

val contracted_arrays : t -> string list
(** Arrays the fusion pass scalarized away: they exist in the source
    but never reach the darray/coherence layer. *)

val plan_for : t -> Mgacc_analysis.Loop_info.t -> Kernel_plan.t
(** Look up by loop location; falls back to planning on the fly for loops
    constructed outside [build] (e.g. in tests). *)

val all_plans : t -> Kernel_plan.t list
(** Every planned loop, in source order across functions. *)

val loop_count : t -> int

(** {2 Consumer lookahead (lazy coherence)}

    The lazy coherence protocol ships a writer's dirty intervals only to
    destinations whose {e next read window} covers them; these summaries
    describe that window statically (docs/COHERENCE.md). *)

type window = Kernel_plan.window =
  | Whole_array  (** conservative: dynamic/non-literal subscripts, mixed
                     coefficients, or a distributed next reader *)
  | Affine_window of { coeff : int; cmin : int; cmax : int }
      (** every read is [coeff*i + c] with [c] in [\[cmin, cmax\]]; a
          GPU covering iterations [\[lo, hi)] reads
          [\[coeff*lo + cmin, coeff*(hi-1) + cmax\]] (for positive
          [coeff]) *)

type lookahead =
  | No_future_read  (** no plan in the program reads the array on device *)
  | Reads_next of { loop_loc : Loc.t; window : window }

val read_window_of : Kernel_plan.t -> array:string -> window option
(** The window of the plan's own real device reads of [array]; [None]
    when the plan performs none (writes and reduction self-reads only).
    Memoized per plan (the summary is a pure function of the plan). *)

val read_window_of_uncached : Kernel_plan.t -> array:string -> window option
(** The computation behind {!read_window_of}, bypassing the memo table
    (exposed so the tests can assert the cache is transparent). *)

val next_read : t -> after:Loc.t -> array:string -> lookahead
(** The next plan in cyclic source order after the loop at [after] (the
    current loop itself is scanned last, since iterative applications
    re-enter their own loops) with real device reads of [array].
    Reduction self-reads — the RHS read recorded for the Set form
    [a\[c\] = a\[c\] + x] of a [reductiontoarray] statement — are not
    real reads: the generated kernel accumulates into per-GPU partials
    and never loads the replica. Memoized per [(after, array)] pair —
    the scan result only depends on the immutable plan order. *)

val next_read_uncached : t -> after:Loc.t -> array:string -> lookahead
(** The scan behind {!next_read}, bypassing the memo table (exposed so
    the tests can assert the cache is transparent). *)
