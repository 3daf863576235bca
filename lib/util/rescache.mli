(** Persistent, content-addressed result cache for simulation jobs.

    A cache maps a {e canonical input descriptor} — a string spelling out
    every input of a measurement (machine config knobs, seed, scheme, job
    kind) — to the job's result, stored as one entry file under a cache
    root.  The file name is a 64-bit FNV-1a digest (16 hex chars,
    filename-safe) of the salted descriptor, so equal inputs collide onto
    the same [<digest>.entry] on every machine and for every worker count.

    {b Entry format.} An entry is a one-record {!Journal}: the journal magic
    and one checksummed frame whose key is the salted descriptor and whose
    value is the result ({!Journal.encode}).  {!find} reads it back through
    {!Journal.decode}, the same verified scan that recovers checkpoints and
    worker journals.  Exactly one verified record under this descriptor is
    a hit.  One record under another descriptor is a digest collision: an
    honest miss, and the file is kept.  Anything else — a truncated,
    bit-flipped or foreign file — is {e deleted, counted in
    [corrupt_dropped] and recomputed, never trusted}.

    {b Torn-write discipline.} Entries are written to a temp file in the
    cache root and [rename]d into place, so a reader can never observe a
    half-written entry.

    {b Cross-process claims (two-phase commit).} When several worker
    processes share one cache root, {!try_claim} arbitrates who computes a
    missing entry: the winner creates [<digest>.lease] with [O_CREAT|O_EXCL]
    (phase one), computes, then {!store}s the value via temp-file + atomic
    rename (phase two) and releases the lease.  Losers poll {!find} until
    the winner commits.  A lease naming a dead holder (the worker was
    killed mid-compute) is broken and re-claimed — the entry file itself is
    either absent or complete, never torn, so a killed winner costs only a
    recompute.  {!compute_through} packages the whole protocol.

    {b Multi-host.} Under [--hosts] the cache root doubles as the result
    store when it sits on a shared filesystem: remote workers commit
    through the same lease protocol, so the coordinator and every machine
    see one set of entries.  The lease therefore records
    ["<pid> <hostname>"], and staleness is only decided where it can be
    observed: a claimant breaks a lease only when the recorded host is its
    own and that pid is dead — a remote holder's pid means nothing locally,
    and probing it would break live leases.  A genuinely wedged remote
    holder is bounded by {!compute_through}'s patience instead.  Without a
    shared filesystem the cache stays per-machine (each side computes its
    own misses) and results reach the coordinator via the worker-journal
    pull in {!Procpool} — never through this cache.

    {b Invalidation.} The effective salt is the entry format version, then
    {!code_salt}, then the user salt: bump {!code_salt} whenever a cached
    result type or the simulator's measured behaviour changes, and every
    stale entry becomes unreachable (different file names).

    {b Type safety.} Values go through [Marshal] untyped, exactly like
    {!Journal}: a descriptor must determine its value type.  The experiment
    layer guarantees this by prefixing every descriptor with its sweep
    family ([perf/lebench|...], [service-cal|...]) and keeping one value
    type per family. *)

type t

val code_salt : string
(** Bump on any change to cached result types or measured simulator
    behaviour; old cache entries then miss and are recomputed. *)

val open_dir : ?salt:string -> string -> t
(** [open_dir dir] opens (creating it, including parents, if needed) a cache
    rooted at [dir].  [salt] (default [""]) composes with {!code_salt}.
    Thread-safe: one [t] may be shared across pool domains, and one
    directory may be shared across worker processes (every mutation is
    temp-file + rename or [O_EXCL] create). *)

val dir : t -> string

val digest_hex : string -> string
(** The 16-hex-char FNV-1a 64 digest used for file names — exposed so tests
    can pin key stability. *)

val find : t -> key:string -> 'a option
(** Look up the entry for canonical descriptor [key].  [None] on a miss, on
    a digest collision, and on any corrupt entry (which is deleted and
    counted in [corrupt_dropped]).  Never raises.  The value must be read at the type it
    was stored with (see the type-safety note above). *)

val store : t -> key:string -> 'a -> unit
(** Write (or atomically replace) the entry for [key] via temp-file +
    rename.  I/O errors do not raise — a cache that cannot write degrades to
    a cache that never hits — but each failure is counted in
    [write_errors] and the first one warns on stderr. *)

(** {1 Cross-process claims} *)

type lease
(** A held claim on one cache entry (an on-disk [<digest>.lease] file naming
    this process's pid and hostname). *)

val try_claim : t -> key:string -> [ `Claimed of lease | `Busy of int option ]
(** Attempt to claim the right to compute [key].  [`Claimed l]: this
    process holds the lease and must eventually {!commit} or {!release} it.
    [`Busy pid]: another live process (of that pid, when readable) holds
    it.  A lease recorded by {e this} host (or a pre-hostname lease) whose
    pid no longer exists is broken and re-claimed atomically; a remote
    host's lease is never broken here (see the multi-host note above). *)

val commit : t -> lease -> 'a -> unit
(** {!store} the computed value, then release the lease.  The entry becomes
    visible to other processes' {!find} before the lease disappears, so a
    loser that sees the lease vanish will hit. *)

val release : t -> lease -> unit
(** Drop the lease without storing (the compute failed); another process may
    then claim it. *)

val compute_through :
  ?patience:float -> ?poll:float -> t -> key:string -> (unit -> 'a) ->
  'a * [ `Hit | `Computed | `Raced ]
(** The full claim protocol: hit if present; otherwise claim, compute, and
    commit ([`Computed]); if another process holds the lease, poll {!find}
    every [poll] seconds (default 0.02) until it commits ([`Raced]).  If the
    holder neither commits nor dies within [patience] seconds (default 10),
    compute anyway — duplicated work beats a deadlock.  If [f] raises, the
    lease is released and the exception re-raised. *)

type stats = {
  hits : int;
  misses : int;
  writes : int;
  write_errors : int;  (** failed {!store} attempts (I/O errors, swallowed) *)
  corrupt_dropped : int;  (** damaged or foreign entry files deleted *)
}

val stats : t -> stats

val report : ?out:out_channel -> t -> unit
(** One-line [rescache: hits=... misses=... writes=... write_errors=...
    corrupt_dropped=... dir=...] summary (the [--cache-stats] output,
    default [stderr]).  Cache counters are run provenance (a warm run hits
    where a cold run missed), so they are reported here and never land in
    the [--metrics] export, which must stay byte-identical between cold and
    warm runs. *)
