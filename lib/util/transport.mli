(** Worker transport abstraction for {!Procpool}.

    PR 7's coordinator/worker protocol ([RDY]/[RUN]/[OK]/[ERR]/[FIN],
    newline-framed ASCII) originally ran over one pipe pair per local
    worker.  This module factors the byte layer out so the same protocol
    runs over either transport:

    - {b Pipe} — a local fork/exec'd worker holding the two pipe ends.
      Death is authoritative via [waitpid] (its [pid] is in the peer).
    - {b Tcp} — a standing remote worker ([pv_cli __worker --listen
      HOST:PORT]) the coordinator connects to.  There is no pid to wait
      on: death is an EOF/reset on the socket or a handshake timeout, and
      the coordinator arbitrates the in-flight cell exactly like a reaped
      local corpse (journal present = completed, absent = lost attempt).

    Nothing protocol-shaped lives here — only links, line framing,
    host-spec parsing, and timeout-bounded connect/listen. *)

type peer =
  | Proc of { pid : int }  (** local child; death detected by [waitpid] *)
  | Sock of { host : string; port : int }
      (** remote standing worker; death detected by EOF/reset/timeout *)

type link = {
  send : Unix.file_descr;  (** coordinator-to-worker commands *)
  recv : Unix.file_descr;  (** worker-to-coordinator replies *)
  peer : peer;
}
(** One worker connection.  For sockets [send == recv] (one full-duplex
    descriptor); for pipes they are the two parent ends. *)

val close_link : link -> unit
(** Close both descriptors (once, when they are the same socket). *)

val send_line : Unix.file_descr -> string -> bool
(** Write [line ^ "\n"], retrying short writes; [false] on a dead peer
    (EPIPE/reset) — the caller treats that as a death signal. *)

val read_line_within : Unix.file_descr -> timeout:float -> string option
(** Blocking read of one newline-terminated line with a deadline.  Used for
    handshakes (a listener reading [HELLO]); [None] on timeout, EOF,
    oversized (> 1 MiB) lines, or error.  The coordinator's main loop does
    NOT use this — it keeps its own select-driven per-worker buffers. *)

val parse_hostspec : string -> (string * int, string) result
(** ["host:port"] or ["[v6addr]:port"] -> [(host, port)], with a one-line
    diagnostic on malformed input.  An unbracketed spec containing more
    than one colon is rejected ("IPv6 requires [host]:port") rather than
    guessed at — the old last-colon split turned ["[::1]:9000"] into a
    misleading bad-port error and silently read ["::1:9000"] as host
    ["::1"]. *)

val parse_hostspecs : string -> ((string * int) list, string) result
(** Comma-separated list of host specs; empty items are skipped. *)

val listen_on : host:string -> port:int -> (Unix.file_descr * int, string) result
(** Bind + listen on [host:port] (SO_REUSEADDR).  The socket family follows
    the resolved address, so IPv6 literals work.  Returns the listening
    descriptor and the actual port — pass port [0] to let the kernel pick
    one (tests, CI). *)

val connect : host:string -> port:int -> timeout:float -> (Unix.file_descr, string) result
(** Non-blocking connect bounded by [timeout] seconds; on success the
    descriptor is back in blocking mode with [TCP_NODELAY] set (the
    protocol is chatty one-liners). *)

val pipe_link : pid:int -> send:Unix.file_descr -> recv:Unix.file_descr -> link
val sock_link : host:string -> port:int -> Unix.file_descr -> link
