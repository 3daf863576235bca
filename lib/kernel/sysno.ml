let known =
  [|
    "read"; "write"; "open"; "close"; "stat"; "fstat"; "poll"; "select";
    "epoll_wait"; "epoll_ctl"; "mmap"; "munmap"; "brk"; "mprotect"; "getpid";
    "fork"; "thread_create"; "exit"; "send"; "recv"; "accept"; "socket";
    "page_fault"; "context_switch"; "futex"; "nanosleep"; "writev"; "sendfile";
    "ioctl"; "fcntl"; "getdents"; "clock_gettime"; "lseek"; "dup"; "pipe";
    "uname"; "getuid"; "setsockopt"; "getsockopt"; "bind"; "listen"; "connect";
    "shutdown"; "readv"; "pread"; "pwrite"; "access"; "sched_yield"; "kill";
    "wait4"; "chdir"; "rename"; "mkdir"; "rmdir"; "creat"; "link"; "unlink";
    "symlink"; "readlink"; "chmod"; "chown"; "umask"; "gettimeofday";
    "getrlimit"; "getrusage";
  |]

let count = 340

let name nr =
  if nr < 0 || nr >= count then invalid_arg "Sysno.name: out of range";
  if nr < Array.length known then known.(nr) else Printf.sprintf "sys_%03d" nr

let lookup n =
  let rec go i =
    if i = count then None else if name i = n then Some i else go (i + 1)
  in
  go 0

let index n =
  match lookup n with Some i -> i | None -> invalid_arg ("Sysno: unknown " ^ n)

let sys_read = index "read"
let sys_write = index "write"
let sys_open = index "open"
let sys_close = index "close"
let sys_stat = index "stat"
let sys_fstat = index "fstat"
let sys_poll = index "poll"
let sys_select = index "select"
let sys_epoll_wait = index "epoll_wait"
let sys_mmap = index "mmap"
let sys_munmap = index "munmap"
let sys_brk = index "brk"
let sys_mprotect = index "mprotect"
let sys_getpid = index "getpid"
let sys_fork = index "fork"
let sys_thread_create = index "thread_create"
let sys_send = index "send"
let sys_recv = index "recv"
let sys_accept = index "accept"
let sys_page_fault = index "page_fault"
let sys_context_switch = index "context_switch"
let sys_futex = index "futex"
let sys_nanosleep = index "nanosleep"
let sys_writev = index "writev"
let sys_sendfile = index "sendfile"
let sys_clock_gettime = index "clock_gettime"
