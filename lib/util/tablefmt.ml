type align = Left | Right

type t = {
  headers : (string * align) list;
  mutable rows : string list list; (* stored reversed *)
}

let create headers =
  if headers = [] then invalid_arg "Tablefmt.create: no columns";
  { headers; rows = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Tablefmt.add_row: wrong arity";
  t.rows <- row :: t.rows

let add_float_row t ?(fmt = Printf.sprintf "%.4g") label floats =
  add_row t (label :: List.map fmt floats);
  t

(* Display columns of a UTF-8 string: its code points, i.e. the bytes that
   are not continuation bytes (0x80–0xBF). *)
let width s =
  String.fold_left (fun n c -> if Char.code c land 0xC0 = 0x80 then n else n + 1) 0 s

let pad align w s =
  let n = width s in
  if n >= w then s
  else
    let fill = String.make (w - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render t =
  let headers = List.map fst t.headers in
  let aligns = List.map snd t.headers in
  let rows = List.rev t.rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (width (List.nth row i)))
          (width h) rows)
      headers
  in
  let render_cells cells =
    let padded = List.map2 (fun (w, a) c -> pad a w c) (List.combine widths aligns) cells in
    "| " ^ String.concat " | " padded ^ " |"
  in
  let rule =
    "|" ^ String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (render_cells headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  List.iter
    (fun row ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf (render_cells row))
    rows;
  Buffer.contents buf

let print t = print_endline (render t)
