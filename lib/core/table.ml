(* Experiment result tables. See table.mli. *)

type t = {
  id : string;
  title : string;
  paper_ref : string;
  headers : string list;
  rows : string list list;
  notes : string list;
}

let make ~id ~title ~paper_ref ~headers ?(notes = []) rows =
  let width = List.length headers in
  List.iteri
    (fun i row ->
      if List.length row <> width then
        invalid_arg
          (Printf.sprintf "Table.make %s: row %d has %d cells, expected %d" id i
             (List.length row) width))
    rows;
  { id; title; paper_ref; headers; rows; notes }

let cell_int = string_of_int

let cell_float ?(decimals = 2) v = Printf.sprintf "%.*f" decimals v

let cell_bool b = if b then "yes" else "NO"

(* Display width of a UTF-8 cell: its code points, i.e. the bytes that
   are not continuation bytes (10xxxxxx), so "⊥" is one column. *)
let cell_width s =
  let w = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr w) s;
  !w

let column_widths t =
  let init = List.map cell_width t.headers in
  List.fold_left
    (fun acc row -> List.map2 (fun w c -> max w (cell_width c)) acc row)
    init t.rows

let pp ppf t =
  let widths = column_widths t in
  let pad s w = s ^ String.make (w - cell_width s) ' ' in
  let render_row row =
    String.concat "  " (List.map2 pad row widths)
  in
  let rule =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  Format.fprintf ppf "@[<v>== %s: %s ==@,(reproduces: %s)@,@,%s@,%s@," t.id
    t.title t.paper_ref
    (render_row t.headers)
    rule;
  List.iter (fun row -> Format.fprintf ppf "%s@," (render_row row)) t.rows;
  List.iter (fun note -> Format.fprintf ppf "note: %s@," note) t.notes;
  Format.fprintf ppf "@]"

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let line cells = String.concat "," (List.map csv_escape cells) in
  String.concat "\n" (line t.headers :: List.map line t.rows) ^ "\n"

let md_escape s =
  String.concat "\\|" (String.split_on_char '|' s)

let to_markdown t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "## %s — %s\n\n" t.id t.title);
  Buffer.add_string buf (Printf.sprintf "*Reproduces: %s*\n\n" t.paper_ref);
  let line cells =
    "| " ^ String.concat " | " (List.map md_escape cells) ^ " |\n"
  in
  Buffer.add_string buf (line t.headers);
  Buffer.add_string buf
    ("|" ^ String.concat "|" (List.map (fun _ -> "---") t.headers) ^ "|\n");
  List.iter (fun row -> Buffer.add_string buf (line row)) t.rows;
  if t.notes <> [] then begin
    Buffer.add_char buf '\n';
    List.iter
      (fun note -> Buffer.add_string buf (Printf.sprintf "- %s\n" note))
      t.notes
  end;
  Buffer.contents buf

let print t = Format.printf "%a@." pp t
