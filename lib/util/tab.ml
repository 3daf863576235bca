type align = Left | Right

type t = {
  title : string;
  header : (string * align) list;
  mutable rows : string list list; (* reversed *)
  mutable captions : string list; (* reversed *)
}

let create ~title ~header = { title; header; rows = []; captions = [] }

let row t cells = t.rows <- cells :: t.rows

let caption t s = t.captions <- s :: t.captions

let render t =
  let ncols = List.length t.header in
  let pad cells =
    let n = List.length cells in
    if n >= ncols then cells else cells @ List.init (ncols - n) (fun _ -> "")
  in
  let rows = List.rev_map pad t.rows in
  let headers = List.map fst t.header in
  let widths = Array.of_list (List.map String.length headers) in
  let fit cells =
    List.iteri
      (fun i c -> if i < ncols then widths.(i) <- max widths.(i) (String.length c))
      cells
  in
  List.iter fit rows;
  let fmt_cell i c =
    let w = widths.(i) in
    let a = snd (List.nth t.header i) in
    match a with
    | Left -> Printf.sprintf "%-*s" w c
    | Right -> Printf.sprintf "%*s" w c
  in
  let fmt_row cells = "| " ^ String.concat " | " (List.mapi fmt_cell cells) ^ " |" in
  let sep =
    "+" ^ String.concat "+" (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths)) ^ "+"
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (sep ^ "\n");
  Buffer.add_string buf (fmt_row headers ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (fmt_row r ^ "\n")) rows;
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun c -> Buffer.add_string buf ("  " ^ c ^ "\n")) (List.rev t.captions);
  Buffer.contents buf

let to_string = render

let csv_cell c =
  if String.exists (fun ch -> ch = ',' || ch = '"' || ch = '\n') c then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' c) ^ "\""
  else c

let to_csv t =
  let ncols = List.length t.header in
  let pad cells =
    let n = List.length cells in
    if n >= ncols then cells else cells @ List.init (ncols - n) (fun _ -> "")
  in
  let line cells = String.concat "," (List.map csv_cell cells) in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (line (List.map fst t.header) ^ "\n");
  List.iter
    (fun r -> Buffer.add_string buf (line (pad r) ^ "\n"))
    (List.rev t.rows);
  Buffer.contents buf

let save_csv t path =
  let oc = open_out path in
  output_string oc (to_csv t);
  close_out oc

let print t = print_string (render t)

let pct x = Printf.sprintf "%.1f%%" x

let fl ?(dec = 2) x = Printf.sprintf "%.*f" dec x

let times x = Printf.sprintf "%.2fx" x
