(** Deterministic pseudo-random number generation.

    All stochastic choices in the simulator flow through this module so that
    every experiment is reproducible bit-for-bit from its seed.  The generator
    is SplitMix64 (Steele, Lea & Flood, OOPSLA'14): tiny state, excellent
    statistical quality for simulation purposes, and trivially splittable. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator.  Equal seeds yield equal streams. *)

val copy : t -> t
(** Independent copy sharing no state with the original. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t].  Streams of the
    parent and child are statistically independent. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int
(** Next non-negative 62-bit integer. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  Raises [Invalid_argument] if [n <= 0]. *)

val in_range : t -> int -> int -> int
(** [in_range t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p] (clamped to [\[0,1\]]). *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_exp : t -> float -> float
(** [sample_exp t mean] draws from an exponential distribution. *)

type 'a weighted
(** A weighted choice table: the values with their running weight sums. *)

val weighted : ('a * float) array -> 'a weighted
(** [weighted pairs] builds the table once over a non-empty array of
    (value, weight) pairs; negative weights count as 0.  Raises
    [Invalid_argument] when the array is empty or the total weight is not
    positive. *)

val pick : t -> 'a weighted -> 'a
(** Weighted choice in O(log n) with a single {!float} draw.  Value [i] is
    drawn with probability [max w_i 0 / total]. *)
