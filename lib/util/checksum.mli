(** FNV-1a 64-bit checksums and the hex codec shared by the persistence
    layer ({!Journal} record framing, {!Rescache} entry file names,
    {!Procpool} wire encoding).

    FNV-1a is not cryptographic; it is an integrity check against torn
    writes, bit rot and truncation, chosen because it is tiny, allocation
    free and byte-for-byte reproducible across platforms — the same reasons
    the result cache already used it for content addressing. *)

val fnv1a64 : string -> int64
(** The FNV-1a 64-bit hash of the bytes of [s]. *)

val digest_hex : string -> string
(** {!fnv1a64} rendered as 16 lowercase hex characters (filename-safe). *)

val hex_of_string : string -> string
(** Lowercase hex encoding of arbitrary bytes (2 chars per byte). *)

val string_of_hex : string -> string option
(** Inverse of {!hex_of_string}; [None] on odd length or a non-hex digit. *)
