(* Minimum-cost assignment on an n×n matrix (the e-maxx formulation with
   potentials and Dijkstra-style row insertion).  Maximum-weight matching
   with optional vertices reduces to it by embedding the rows×cols weight
   matrix in an (rows+cols)² cost matrix where dummy cells cost 0 and real
   cells cost -w: a perfect assignment then picks, for every row, either a
   real partner or its private dummy. *)

let assignment cost n =
  let inf = Float.infinity in
  let u = Array.make (n + 1) 0.0 in
  let v = Array.make (n + 1) 0.0 in
  let p = Array.make (n + 1) 0 in
  let way = Array.make (n + 1) 0 in
  for i = 1 to n do
    p.(0) <- i;
    let j0 = ref 0 in
    let minv = Array.make (n + 1) inf in
    let used = Array.make (n + 1) false in
    let continue = ref true in
    while !continue do
      used.(!j0) <- true;
      let i0 = p.(!j0) in
      let delta = ref inf in
      let j1 = ref 0 in
      for j = 1 to n do
        if not used.(j) then begin
          let cur = cost.(i0 - 1).(j - 1) -. u.(i0) -. v.(j) in
          if cur < minv.(j) then begin
            minv.(j) <- cur;
            way.(j) <- !j0
          end;
          if minv.(j) < !delta then begin
            delta := minv.(j);
            j1 := j
          end
        end
      done;
      for j = 0 to n do
        if used.(j) then begin
          u.(p.(j)) <- u.(p.(j)) +. !delta;
          v.(j) <- v.(j) -. !delta
        end
        else minv.(j) <- minv.(j) -. !delta
      done;
      j0 := !j1;
      if p.(!j0) = 0 then continue := false
    done;
    let j0 = ref !j0 in
    while !j0 <> 0 do
      let j1 = way.(!j0) in
      p.(!j0) <- p.(j1);
      j0 := j1
    done
  done;
  (* p.(j) is the row (1-based) assigned to column j. *)
  Array.init n (fun j -> p.(j + 1) - 1)

let size_hist = Fsa_obs.Metric.Histogram.make "hungarian.n"

let solve w =
  let rows = Array.length w in
  let cols = if rows = 0 then 0 else Array.length w.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> cols then invalid_arg "Hungarian.solve: ragged matrix")
    w;
  if rows = 0 || cols = 0 then ([], 0.0)
  else begin
    Fsa_obs.Span.with_ ~name:"hungarian.solve" @@ fun () ->
    Fsa_obs.Metric.Histogram.observe_int size_hist (rows + cols);
    let n = rows + cols in
    let cost = Array.make_matrix n n 0.0 in
    for i = 0 to rows - 1 do
      for j = 0 to cols - 1 do
        cost.(i).(j) <- -.w.(i).(j)
      done
    done;
    let row_of_col = assignment cost n in
    let pairs = ref [] in
    let total = ref 0.0 in
    for j = 0 to cols - 1 do
      let i = row_of_col.(j) in
      if i >= 0 && i < rows && w.(i).(j) > 0.0 then begin
        pairs := (i, j) :: !pairs;
        total := !total +. w.(i).(j)
      end
    done;
    (List.rev !pairs, !total)
  end

let solve_exactly_brute w =
  let rows = Array.length w in
  let cols = if rows = 0 then 0 else Array.length w.(0) in
  let col_used = Array.make (max cols 1) false in
  let rec go i =
    if i = rows then 0.0
    else begin
      let best = ref (go (i + 1)) in
      for j = 0 to cols - 1 do
        if (not col_used.(j)) && w.(i).(j) > 0.0 then begin
          col_used.(j) <- true;
          let v = w.(i).(j) +. go (i + 1) in
          if v > !best then best := v;
          col_used.(j) <- false
        end
      done;
      !best
    end
  in
  go 0
