open Fsa_csr

type failure = { property : string; detail : string }

let tol = 1e-6
let fmt = Printf.sprintf

(* ε for the scaled CSR_Improve run: large enough that truncation visibly
   coarsens σ, so the wrapper's rescoring path is actually exercised. *)
let scaled_epsilon = 0.25

let solvers =
  [
    ("greedy", fun inst -> Greedy.solve inst);
    ("four_approx_tpa", fun inst -> One_csr.four_approx ~algorithm:One_csr.Tpa inst);
    ( "four_approx_exact_isp",
      fun inst -> One_csr.four_approx ~algorithm:One_csr.Exact_isp inst );
    ( "four_approx_greedy_isp",
      fun inst -> One_csr.four_approx ~algorithm:One_csr.Greedy_isp inst );
    ("matching_2approx", Border_improve.matching_2approx);
    ("full_improve", fun inst -> fst (Full_improve.solve inst));
    ("border_improve", fun inst -> fst (Border_improve.solve inst));
    ("csr_improve", fun inst -> fst (Csr_improve.solve inst));
    ( "csr_improve_scaled",
      fun inst -> Csr_improve.solve_scaled ~epsilon:scaled_epsilon inst );
    ("solve_best", Csr_improve.solve_best);
  ]

(* Solver outputs and the exact optimum are forced at most once per context
   and shared by every property; an exception is data, not an escape. *)
type ctx = {
  inst : Instance.t;
  opt : (float * Conjecture.layout * Conjecture.layout, exn) result Lazy.t;
  sols : (string * (Solution.t, exn) result Lazy.t) list;
}

let make_ctx inst =
  {
    inst;
    opt =
      lazy
        (try
           match Exact.solve inst with
           | Ok r -> Ok r
           | Error (`Budget_exceeded n) ->
               Error (Failure (fmt "exact budget exceeded (%d layouts)" n))
         with e -> Error e);
    sols =
      List.map
        (fun (name, f) -> (name, lazy (try Ok (f inst) with e -> Error e)))
        solvers;
  }

let sol ctx name = Lazy.force (List.assoc name ctx.sols)
let exn_detail what e = fmt "%s raised %s" what (Printexc.to_string e)

type property = { name : string; check : ctx -> string option }

(* --- structural properties, one set per solver ------------------------- *)

let p_valid sname =
  {
    name = sname ^ ".valid";
    check =
      (fun ctx ->
        match sol ctx sname with
        | Error e -> Some (exn_detail sname e)
        | Ok s -> (
            match Solution.validate s with Ok () -> None | Error m -> Some m));
  }

let p_conjecture sname =
  {
    name = sname ^ ".conjecture";
    check =
      (fun ctx ->
        match sol ctx sname with
        | Error e -> Some (exn_detail sname e)
        | Ok s -> (
            match Conjecture.of_solution s with
            | Error (Conjecture.Invalid_solution m) -> Some ("no layout: " ^ m)
            | Ok c -> (
                match Conjecture.check ctx.inst c with
                | Error m -> Some ("structural: " ^ m)
                | Ok () ->
                    let cs = Conjecture.score ctx.inst c in
                    if Float.abs (cs -. Solution.score s) > tol then
                      Some
                        (fmt "conjecture score %g <> solution score %g" cs
                           (Solution.score s))
                    else None)));
  }

let p_roundtrip sname =
  {
    name = sname ^ ".roundtrip";
    check =
      (fun ctx ->
        match sol ctx sname with
        | Error e -> Some (exn_detail sname e)
        | Ok s -> (
            match Solution.of_text ctx.inst (Solution.to_text s) with
            | Error m -> Some ("reparse failed: " ^ m)
            | Ok s' ->
                if Float.abs (Solution.score s' -. Solution.score s) > tol then
                  Some
                    (fmt "round-trip score %g <> %g" (Solution.score s')
                       (Solution.score s))
                else None));
  }

let p_le_opt sname =
  {
    name = sname ^ ".le_opt";
    check =
      (fun ctx ->
        match (sol ctx sname, Lazy.force ctx.opt) with
        | Error e, _ -> Some (exn_detail sname e)
        | _, Error e -> Some (exn_detail "exact" e)
        | Ok s, Ok (opt, _, _) ->
            if Solution.score s > opt +. tol then
              Some (fmt "score %g exceeds the optimum %g" (Solution.score s) opt)
            else None);
  }

let with_pruning on f =
  let was = Bound.enabled () in
  Fun.protect
    ~finally:(fun () -> Bound.set_enabled was)
    (fun () ->
      Bound.set_enabled on;
      f ())

(* Pruning (Bound.pair_viable) must be invisible: rerunning a solver with
   the admissible-bound pruning toggled the other way has to reproduce the
   solution bit for bit — same serialized matches, same score down to the
   float bits ([%h]).  This is the differential guard for an inadmissible
   bound (a too-small bound silently drops candidates). *)
let p_prune_identical sname =
  {
    name = sname ^ ".prune_identical";
    check =
      (fun ctx ->
        match sol ctx sname with
        | Error e -> Some (exn_detail sname e)
        | Ok s ->
            let was = Bound.enabled () in
            let s' =
              with_pruning (not was) (fun () -> (List.assoc sname solvers) ctx.inst)
            in
            let bits v = Int64.bits_of_float (Solution.score v) in
            if bits s' <> bits s then
              Some
                (fmt "score %h with pruning %b <> %h with pruning %b"
                   (Solution.score s) was (Solution.score s') (not was))
            else if Solution.to_text s' <> Solution.to_text s then
              Some "solution differs with pruning toggled"
            else None);
  }

(* --- differential / ratio properties ----------------------------------- *)

let p_exact_witness =
  {
    name = "exact.witness";
    check =
      (fun ctx ->
        match Lazy.force ctx.opt with
        | Error e -> Some (exn_detail "exact" e)
        | Ok (opt, hl, ml) ->
            let ws = Conjecture.score_of_layouts ctx.inst hl ml in
            if Float.abs (ws -. opt) > tol then
              Some (fmt "witness layouts score %g, optimum reported %g" ws opt)
            else None);
  }

(* factor · score(solver) + tol >= opt *)
let p_ratio pname sname factor =
  {
    name = pname;
    check =
      (fun ctx ->
        match (sol ctx sname, Lazy.force ctx.opt) with
        | Error e, _ -> Some (exn_detail sname e)
        | _, Error e -> Some (exn_detail "exact" e)
        | Ok s, Ok (opt, _, _) ->
            let v = Solution.score s in
            if (factor *. v) +. tol < opt then
              Some (fmt "%g·%g = %g < optimum %g" factor v (factor *. v) opt)
            else None);
  }

(* Thm 4 is relative to the Full-CSR optimum, which the exact solver does
   not isolate; the exact-ISP doubling emits full matches only, so its
   score is a certified lower bound on FullOpt. *)
let p_full_improve_bound =
  {
    name = "full_improve.full_ratio3";
    check =
      (fun ctx ->
        match (sol ctx "full_improve", sol ctx "four_approx_exact_isp") with
        | Error e, _ -> Some (exn_detail "full_improve" e)
        | _, Error e -> Some (exn_detail "four_approx_exact_isp" e)
        | Ok full, Ok witness ->
            let v = Solution.score full and w = Solution.score witness in
            if (3.0 *. v) +. tol < w then
              Some (fmt "3·%g < full-match witness %g" v w)
            else None);
  }

(* CSR_Improve climbs from the better of the two cheap answers (§4.1), and
   a local search never ends below its start. *)
let p_csr_improve_start =
  {
    name = "csr_improve.start";
    check =
      (fun ctx ->
        match
          (sol ctx "csr_improve", sol ctx "four_approx_tpa", sol ctx "matching_2approx")
        with
        | Error e, _, _ -> Some (exn_detail "csr_improve" e)
        | _, Error e, _ -> Some (exn_detail "four_approx_tpa" e)
        | _, _, Error e -> Some (exn_detail "matching_2approx" e)
        | Ok s, Ok four, Ok matching ->
            let v = Solution.score s in
            let start = Float.max (Solution.score four) (Solution.score matching) in
            if v +. tol < start then Some (fmt "score %g below its start %g" v start)
            else None);
  }

(* The premise of Thms 4–6: an improvement solver returns a local optimum,
   so no attempt of its own attempt space gains more than 1e-9 on it.  The
   attempts run with pruning off, so that no bound decides this check. *)
let p_local_opt sname attempts =
  let check ctx =
    match sol ctx sname with
    | Error e -> Some (exn_detail sname e)
    | Ok s ->
        let gain s' = Solution.score s' -. Solution.score s in
        with_pruning false @@ fun () ->
        List.find_map
          (fun (a : Improve.attempt) ->
            match a.apply s with
            | Some s' when gain s' > 1e-9 ->
                Some (fmt "%s gains %g" (a.label ()) (gain s'))
            | Some _ | None -> None)
          (attempts ctx.inst (Border_improve.border_candidates ctx.inst) s)
  in
  { name = sname ^ ".local_opt"; check }

(* Attempt_bound must dominate what an attempt builds.  With pruning off,
   from the CSR_Improve start and every solution its run commits, and from
   every solution Full_Improve's run from empty commits, each I1 and
   CSR_Improve I2 attempt scores at most the bound it checks (attempts
   that check none observe [infinity]). *)
let p_attempt_bound =
  let check ctx =
    let inst = ctx.inst in
    let candidates = Border_improve.border_candidates inst in
    let csr = Csr_improve.attempts Csr_improve.default_config inst candidates in
    let full = Full_improve.attempts inst in
    (* Improve.run asks for a round's attempts on its start and on every
       solution it commits. *)
    let bases = ref [] in
    let seen attempts s =
      bases := s :: !bases;
      attempts s
    in
    with_pruning false @@ fun () ->
    ignore (Improve.run ~attempts:(seen csr) ~init:(Csr_improve.start inst) ());
    ignore (Improve.run ~attempts:(seen (fun _ -> full)) ~init:(Solution.empty inst) ());
    List.find_map
      (fun s ->
        List.find_map
          (fun (a : Improve.attempt) ->
            let bound = ref infinity in
            match Attempt_bound.observe (fun b -> bound := b) (fun () -> a.apply s) with
            | Some s' when Solution.score s' > !bound +. tol ->
                Some
                  (fmt "%s on a base of %g scores %g above its bound %g" (a.label ())
                     (Solution.score s) (Solution.score s') !bound)
            | Some _ | None -> None)
          (csr s))
      (List.rev !bases)
  in
  { name = "improve.attempt_bound"; check }

let p_isp_tpa side =
  let tag = match side with Species.H -> "h" | Species.M -> "m" in
  {
    name = "isp.tpa_half_" ^ tag;
    check =
      (fun ctx ->
        let isp = One_csr.isp_of ctx.inst ~jobs_side:side in
        let v, selected = Fsa_intervals.Isp.tpa isp in
        if not (Fsa_intervals.Isp.is_feasible isp selected) then
          Some "TPA selection infeasible"
        else if Float.abs (v -. Fsa_intervals.Isp.total_profit selected) > tol
        then Some "TPA value out of sync with its selection"
        else
          match Fsa_intervals.Isp.exact ~node_limit:2_000_000 isp with
          | Error (`Node_limit _) -> None (* too big to certify; skip *)
          | Error (`Budget_exceeded _) -> None (* ambient budget tripped; skip *)
          | Ok (ov, _) ->
              if (2.0 *. v) +. tol < ov then
                Some (fmt "2·%g < ISP optimum %g" v ov)
              else None);
  }

let properties =
  List.concat_map
    (fun (sname, _) ->
      [ p_valid sname; p_conjecture sname; p_roundtrip sname; p_le_opt sname ])
    solvers
  @ [
      p_exact_witness;
      p_ratio "csr_improve.ratio3" "csr_improve" 3.0;
      (* scaled run loses a further (1-ε) factor: score >= opt·(1-ε)/3 *)
      p_ratio "csr_improve_scaled.ratio3eps" "csr_improve_scaled"
        (3.0 /. (1.0 -. scaled_epsilon));
      p_ratio "four_approx_tpa.ratio4" "four_approx_tpa" 4.0;
      p_ratio "four_approx_exact_isp.ratio2" "four_approx_exact_isp" 2.0;
      p_full_improve_bound;
      p_csr_improve_start;
      p_local_opt "full_improve" (fun inst _ _ -> Full_improve.attempts inst);
      p_local_opt "border_improve" Border_improve.attempts;
      p_local_opt "csr_improve" (Csr_improve.attempts Csr_improve.default_config);
      p_attempt_bound;
      p_isp_tpa Species.H;
      p_isp_tpa Species.M;
      p_prune_identical "greedy";
      p_prune_identical "four_approx_tpa";
      p_prune_identical "matching_2approx";
      p_prune_identical "full_improve";
      p_prune_identical "border_improve";
      p_prune_identical "csr_improve";
    ]

let property_names = List.map (fun p -> p.name) properties

let run_property ctx p =
  match p.check ctx with
  | None -> None
  | Some detail -> Some { property = p.name; detail }
  | exception e ->
      Some { property = p.name; detail = "exception: " ^ Printexc.to_string e }

let run inst =
  let ctx = make_ctx inst in
  List.filter_map (run_property ctx) properties

let fails name inst =
  match List.find_opt (fun p -> p.name = name) properties with
  | None -> invalid_arg ("Oracle.fails: unknown property " ^ name)
  | Some p -> run_property (make_ctx inst) p <> None
