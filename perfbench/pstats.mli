(** Order statistics for the benchmark's reports. *)

val median : float array -> float
(** @raise Invalid_argument on an empty array. *)

val percentile : float array -> float -> (float, string) result
(** [percentile xs p] is the nearest-rank [p]-th percentile of [xs].  It
    refuses ([Error]) when fewer than 10 samples lie beyond the
    percentile's rank — a p95 needs at least 200 samples — because a tail
    figure resting on a handful of samples is noise. *)
