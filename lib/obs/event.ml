type t =
  | Span_begin of { name : string; depth : int }
  | Span_end of {
      name : string;
      depth : int;
      elapsed_ns : float;
      minor_words : float;
      major_words : float;
    }
  | Phase of { name : string }
  | Move of {
      solver : string;
      round : int;
      label : string;
      accepted : bool;
      score_before : float;
      score_after : float;
    }
  | Step of { solver : string; round : int; evaluated : int; score : float }
  | Note of { name : string; value : float }

let to_json = function
  | Span_begin { name; depth } ->
      Json.Obj
        [ ("type", Json.String "span_begin"); ("name", Json.String name);
          ("depth", Json.Int depth) ]
  | Span_end { name; depth; elapsed_ns; minor_words; major_words } ->
      Json.Obj
        [ ("type", Json.String "span_end"); ("name", Json.String name);
          ("depth", Json.Int depth); ("elapsed_ns", Json.Float elapsed_ns);
          ("minor_words", Json.Float minor_words);
          ("major_words", Json.Float major_words) ]
  | Phase { name } ->
      Json.Obj [ ("type", Json.String "phase"); ("name", Json.String name) ]
  | Move { solver; round; label; accepted; score_before; score_after } ->
      Json.Obj
        [ ("type", Json.String "move"); ("solver", Json.String solver);
          ("round", Json.Int round); ("label", Json.String label);
          ("accepted", Json.Bool accepted);
          ("score_before", Json.Float score_before);
          ("score_after", Json.Float score_after);
          ("score_delta", Json.Float (score_after -. score_before)) ]
  | Step { solver; round; evaluated; score } ->
      Json.Obj
        [ ("type", Json.String "step"); ("solver", Json.String solver);
          ("round", Json.Int round); ("evaluated", Json.Int evaluated);
          ("score", Json.Float score) ]
  | Note { name; value } ->
      Json.Obj
        [ ("type", Json.String "note"); ("name", Json.String name);
          ("value", Json.Float value) ]

let field_str j key =
  match Json.member key j with Some (Json.String s) -> Some s | _ -> None

let field_int j key = Option.bind (Json.member key j) Json.to_int_opt
let field_float j key = Option.bind (Json.member key j) Json.to_float_opt
let field_bool j key = Option.bind (Json.member key j) Json.to_bool_opt

let of_json j =
  let ( let* ) = Option.bind in
  match field_str j "type" with
  | Some "span_begin" ->
      let* name = field_str j "name" in
      let* depth = field_int j "depth" in
      Some (Span_begin { name; depth })
  | Some "span_end" ->
      let* name = field_str j "name" in
      let* depth = field_int j "depth" in
      let* elapsed_ns = field_float j "elapsed_ns" in
      let* minor_words = field_float j "minor_words" in
      let* major_words = field_float j "major_words" in
      Some (Span_end { name; depth; elapsed_ns; minor_words; major_words })
  | Some "phase" ->
      let* name = field_str j "name" in
      Some (Phase { name })
  | Some "move" ->
      let* solver = field_str j "solver" in
      let* round = field_int j "round" in
      let* label = field_str j "label" in
      let* accepted = field_bool j "accepted" in
      let* score_before = field_float j "score_before" in
      let* score_after = field_float j "score_after" in
      Some (Move { solver; round; label; accepted; score_before; score_after })
  | Some "step" ->
      let* solver = field_str j "solver" in
      let* round = field_int j "round" in
      let* evaluated = field_int j "evaluated" in
      let* score = field_float j "score" in
      Some (Step { solver; round; evaluated; score })
  | Some "note" ->
      let* name = field_str j "name" in
      let* value = field_float j "value" in
      Some (Note { name; value })
  | Some _ | None -> None
