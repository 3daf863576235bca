(** Small filesystem helpers shared by {!Procpool} and {!Rescache}. *)

val mkdir_p : string -> unit
(** Create [dir] and any missing parents (mode [0o755]); a directory that
    already exists, or appears concurrently, is fine.  Other failures raise
    [Unix.Unix_error]. *)

val read_file : string -> string option
(** The whole file's bytes, or [None] if it cannot be opened or read. *)
