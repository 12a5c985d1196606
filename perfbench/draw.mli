(** Seeded workload draws.

    Every draw is a pure function of the seed: the same seed gives the same
    circuits, depths and request sequence.  The program under test only
    ever sees the generated inputs, never the seed.  A draw's make-up (which
    families, sizes and depths) is the same for every seed; the seed picks
    the circuits within it.  That keeps whole-workload sums comparable
    across seeds while a hold-out seed still brings circuits no tuning has
    seen. *)

(** {1 Batch workloads} *)

val batch_depth_cap : int

val batch_noise : int array
(** The noise bases of the whole batch draw: [[|4; 16|]]. *)

val batch : noise:int array -> seed:int -> (Circuit.Generators.case * int) list
(** Properties paired with their depth bounds (the suggested depth, capped
    at {!batch_depth_cap}): ten families of {!Circuit.Generators.suite},
    three of them failing within the bound, each at two neighbouring noise
    levels per base in [noise] (forty properties from {!batch_noise}),
    the pair from the base plus a seeded offset in [\[0, 4)]; in a seeded
    order.  The parity family is left out: one of its members would
    dominate every sweep. *)

(** {1 The serve mix} *)

type kind =
  | Cold  (** first request for a circuit not seen before *)
  | Repeat  (** an earlier request, sent again verbatim *)
  | Extend  (** an earlier circuit at a deeper depth *)

val kind_string : kind -> string

type request = {
  kind : kind;
  circuit : int;  (** index into [circuits] *)
  depth : int;
}

type mix = {
  circuits : Circuit.Generators.case array;  (** one per cold request *)
  requests : request array;
}

val serve_combos_count : int
(** Number of (family, size) pairs the serve mix draws from: small members
    of the suite's families, cheap enough for an interactive service. *)

val serve_max_depth : int
(** The deepest depth a serve request asks for. *)

val serve_mix : seed:int -> n:int -> mix
(** [n] requests from 16 interleaved episodes.  An episode asks about one
    circuit at depth 3 (cold), then 3 deeper each time up to
    {!serve_max_depth} (extends), then at that depth again (a repeat); then
    its slot starts a new episode.  Slots take turns in cycles, each cycle
    in a seeded order, and join in staggered cycles, so from the fourth
    cycle on every cycle holds as many cold requests as extends to each
    depth and repeats.  Cold circuits come in blocks of {!serve_combos_count}: each
    block holds every (family, size) pair once, in a seeded order, at the
    next of that pair's noise levels in [\[8, 16)] (visited in a seeded
    order, then cycled).  Consecutive blocks thus differ in every circuit
    but not in their make-up, and a circuit recurs only 8 blocks later,
    long after the cache has evicted it. *)
