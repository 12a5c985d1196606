(** The benchmark's correctness gate.

    A run that produces a wrong answer is not a fast run: every check that
    fails here is counted as a failed operation and makes the run report
    [correct: false]. *)

(** {1 Operations} *)

type tally
(** Operations attempted and failed in one run. *)

val tally : unit -> tally

val operation : tally -> string -> (unit, string) result list -> unit
(** [operation t what checks] counts one operation (a property sweep, a
    race, a served request).  Every check must be [Ok], else the operation
    counts as failed and each error is printed on standard error. *)

val failed : tally -> int

val result : tally -> metrics:(string * Obs.Json.t) list -> Obs.Json.t
(** The run's result object: [correct], [attempted] (at least 1), [failed]
    and [metrics].  [correct] is true only when operations were attempted
    and none failed. *)

(** {1 Verdicts and checks} *)

type verdict =
  | Falsified of int  (** counterexample at this depth *)
  | Passed of int  (** every depth up to this bound is UNSAT *)
  | Aborted of int  (** budget exhausted at this depth: undecided *)

val verdict_string : verdict -> string

val decided : verdict -> bool

val of_session : Bmc.Session.verdict -> verdict

val of_served : Serve.Protocol.verdict_summary -> verdict

val check_expect : Circuit.Generators.expect option -> depth:int -> verdict -> (unit, string) result
(** A check bounded at [depth] against the generator's analytic
    expectation: a decided verdict must be the counterexample depth, or a
    pass at [depth] when the property holds that far.  An undecided verdict
    passes (it is counted by [decided_frac] instead), and so does any
    verdict when the generator does not know the answer. *)

val check_agree : (string * verdict) list -> (unit, string) result
(** Verdicts of one property under different orderings or substrates: the
    decided ones must all be equal. *)

val at_depth : verdict -> depth:int -> verdict option
(** The verdict a check bounded at [depth] must give, implied by a verdict
    of a check of the same property run to its own bound; [None] when it
    implies nothing (the check stopped short of [depth]). *)

val check_served : batch:verdict -> depth:int -> verdict -> (unit, string) result
(** A served answer at [depth] against the batch verdict of the same
    circuit (see {!at_depth}); an undecided answer passes. *)

val replay_served : text:string -> Obs.Json.t -> (unit, string) result
(** Replay a served counterexample — the trace JSON of a response, whose
    nodes are named as in the [.rnl] [text] the request carried — by
    {!Bmc.Trace.replay} on the circuit parsed from [text]. *)
