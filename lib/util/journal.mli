(** Append-only, checksummed checkpoint journal for experiment sweeps.

    A journal is a magic header ([pvjrnl2] + newline) followed by framed
    records: each frame is a 4-byte little-endian payload length, an 8-byte
    little-endian FNV-1a 64 checksum of the payload, and the payload itself
    (one marshalled [(key, value)] pair).  The supervised runner appends one
    record per completed sweep cell (from whichever domain ran it —
    {!append} is thread-safe and flushes), so a crashed or interrupted sweep
    can be resumed.

    {b Crash-consistency model (FSCQ-style).}  Recovery replays exactly the
    checksummed prefix: {!load} and {!open_writer} verify every frame in
    order and stop at the first frame that is short, has an implausible
    length, or whose checksum does not match.  Everything after that point
    is untrusted — {!open_writer} copies it to [<path>.quarantine] for
    post-mortems and truncates it away, so appends after a resume always
    land on a frame boundary.  This catches not only torn tails (mid-write
    kills) but mid-file bit-flips, which the pre-checksum format would have
    silently accepted.

    {b Migration.}  Journals written before the checksummed format (bare
    concatenated Marshal blocks) are detected by their leading Marshal magic
    and rejected with {!Incompatible} rather than misparsed; the CLI turns
    this into a one-line diagnostic and exit code 2.

    {b Type safety.} Values go through [Marshal] untyped, exactly like any
    on-disk cache; a journal must only ever be read back at the type it was
    written with.  The supervised runner guarantees this by prefixing every
    key with its sweep family (["lebench/..."], ["speedup/..."]) and keeping
    one value type per family. *)

exception Incompatible of string
(** The file exists and is large enough to carry a header, but does not
    start with the journal magic — it is some other format (notably the
    pre-checksum journal format) and must not be parsed. *)

val magic : string
(** The 8-byte file header ["pvjrnl2\n"]. *)

type writer

val open_writer : string -> writer
(** Open (creating if needed) for append.  Existing verified records are
    kept — the caller decides whether an old journal is a resume source or
    stale (the CLI removes the file when starting a fresh checkpointed
    sweep) — but everything after the first bad frame is quarantined to
    [<path>.quarantine] and truncated away first.  Raises {!Incompatible}
    on a non-journal file. *)

val append : writer -> key:string -> 'a -> unit
(** Append one record and flush.  Safe to call from multiple domains. *)

val append_torn : writer -> key:string -> 'a -> unit
(** Deliberately write only a prefix of the record's frame (header plus
    half the payload) and flush.  This is a fault-injection aid: it leaves
    the journal in exactly the state a mid-append SIGKILL would, so kill
    injection and the recovery tests exercise the real torn-write path.  The
    writer must not be used again afterwards. *)

val merge_into : writer -> string -> int
(** [merge_into w src] appends every verified record of the journal file
    [src] to [w] as a raw frame copy (no re-marshalling) and returns how
    many records were merged; [0] if [src] does not exist or holds no
    complete record.  Used by the multi-process coordinator to fold worker
    journals into the user-visible checkpoint.  Raises {!Incompatible} if
    [src] is a foreign format. *)

val close : writer -> unit

val path : writer -> string
(** The file this writer appends to. *)

val load : string -> (string * 'a) list
(** All verified records, in write order; [[]] if the file does not exist.
    Duplicate keys are possible (a cell re-run after a resume); later records
    supersede earlier ones.  Raises {!Incompatible} on a foreign format. *)

val load_table : string -> (string, 'a) Hashtbl.t
(** {!load} into a last-wins table. *)

(** {1 Journals in memory} *)

val encode : key:string -> 'a -> string
(** The bytes of a one-record journal: {!magic} followed by the frame that
    {!append} would write for [(key, v)].  {!Rescache} stores each cache
    entry this way. *)

val decode : string -> (string * 'a) list
(** The verified records of journal bytes already in memory, in write
    order, under exactly the rules {!load} applies to a file: scanning stops
    at the first short, implausible or mismatched frame, and input shorter
    than {!magic} holds no record.  Raises {!Incompatible} on foreign
    bytes. *)

(** Pre-flight classification of a journal named as a resume source, so the
    CLI can print one diagnostic line instead of resuming from nothing (or
    surfacing an exception).  [Usable] reports both the verified record
    count and the number of distinct keys — the latter is what a resumed
    sweep will actually skip (duplicate keys arise when a cell re-ran after
    an earlier resume).  [Missing]: the file does not exist.  [Unusable]:
    it exists but holds no complete record, cannot be read, or is a foreign
    format (including the pre-checksum journal format). *)
type resume_status =
  | Missing
  | Unusable of string
  | Usable of { records : int; distinct : int }

val resume_status : string -> resume_status
