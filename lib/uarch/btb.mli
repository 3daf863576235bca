(** Branch target buffer for indirect calls.

    Set-associative, indexed and partially tagged by virtual address bits
    only — no address-space tag and no privilege tag.  Partial tagging means
    differently privileged code at aliasing addresses shares entries, which is
    the injection vector for Spectre-v2-style speculative control-flow
    hijacking (paper §4.1). *)

type t

val create : ?entries:int -> ?ways:int -> unit -> t
(** Defaults: 4096 entries, 4 ways (Table 7.1). *)

val lookup : t -> int -> int option
(** [lookup t pc] is the predicted target VA, if any. *)

val update : t -> int -> int -> unit
(** [update t pc target] trains the entry for [pc] (called at resolution). *)

val tag_of : t -> int -> int
(** Exposed so attack builders can construct aliasing program points. *)

val aliases : t -> int -> int -> bool
(** Do two PCs map to the same set and partial tag? *)

val flush : t -> unit
