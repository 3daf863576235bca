(** JSON text helpers.  The repo has no JSON dependency; writers render
    their documents by hand through this module. *)

val escape : string -> string
(** The body of a JSON string literal for [s] (no surrounding quotes):
    ["\""], ["\\"] and newline get their short escapes, every other control
    character becomes [\u00XX], and all other bytes pass through. *)
