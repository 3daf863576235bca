module Layout = Pv_isa.Layout

type t = {
  pid : int;
  asid : int;
  cgroup : int;
  page_table : (int, int) Hashtbl.t; (* user page VA -> frame *)
  mutable kstack : int option;
  mutable heap_next : int;
  mutable data : int list; (* reversed *)
}

let create ~pid ~asid ~cgroup =
  {
    pid;
    asid;
    cgroup;
    page_table = Hashtbl.create 64;
    kstack = None;
    heap_next = Layout.user_data_base;
    data = [];
  }

let pid t = t.pid
let asid t = t.asid
let cgroup t = t.cgroup

let page_va va = va land lnot (Layout.page_bytes - 1)

let map_page t ~va ~frame = Hashtbl.replace t.page_table (page_va va) frame

let unmap_page t ~va =
  let key = page_va va in
  match Hashtbl.find_opt t.page_table key with
  | Some frame ->
    Hashtbl.remove t.page_table key;
    Some frame
  | None -> None

let frame_for t ~va = Hashtbl.find_opt t.page_table (page_va va)

let set_kstack t frame = t.kstack <- Some frame

let kstack t = t.kstack

let fresh_heap_va t ~pages =
  let va = t.heap_next in
  t.heap_next <- t.heap_next + (pages * Layout.page_bytes);
  va

let note_data_frame t frame = t.data <- frame :: t.data

let data_frames t = Array.of_list (List.rev t.data)
