(* Scenario tests for the paper's figures: the two inconsistency examples
   of Fig 3, the I1 improvement mechanics of Fig 9, and the I3 island swap
   of Fig 13.  These pin the model to the paper's intended semantics. *)

open Fsa_seq
open Fsa_csr

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let two_by_two sigma_entries =
  (* h = <a b>, m = <c d> with the given σ. *)
  let alphabet = Alphabet.of_names [ "a"; "b"; "c"; "d" ] in
  let sym = Alphabet.symbol_of_string alphabet in
  let sigma = Scoring.of_list (List.map (fun (x, y, v) -> (sym x, sym y, v)) sigma_entries) in
  Instance.make ~alphabet
    ~h:[ Fragment.make "h" [| sym "a"; sym "b" |] ]
    ~m:[ Fragment.make "m" [| sym "c"; sym "d" |] ]
    ~sigma

(* ------------------------------------------------------------------ *)
(* Fig 3, first example: orientation conflict.  a aligns with c and b
   aligns with dᴿ; the a–c alignment supports the current orientation of m
   while b–dᴿ calls for reversal, so only one can be kept. *)

let test_fig3_orientation_conflict () =
  let inst = two_by_two [ ("a", "c", 4.0); ("b", "d'", 3.0) ] in
  (* Each alignment alone is achievable... *)
  let only_ac = two_by_two [ ("a", "c", 4.0) ] in
  let only_bdr = two_by_two [ ("b", "d'", 3.0) ] in
  check_float "a–c alone" 4.0 (Exact.solve_score only_ac);
  check_float "b–dᴿ alone" 3.0 (Exact.solve_score only_bdr);
  (* ... but together the optimum is the max, not the sum. *)
  check_float "conflict: keep the better one" 4.0 (Exact.solve_score inst)

(* Fig 3, second example: order violation.  a aligns with d and b with c —
   the aligning regions are not in the same order in the two sequences. *)

let test_fig3_order_conflict () =
  let inst = two_by_two [ ("a", "d", 4.0); ("b", "c", 3.0) ] in
  check_float "crossing alignments cannot both survive" 4.0 (Exact.solve_score inst);
  (* Sanity: parallel alignments do coexist. *)
  let parallel = two_by_two [ ("a", "c", 4.0); ("b", "d", 3.0) ] in
  check_float "parallel alignments coexist" 7.0 (Exact.solve_score parallel)

(* And the same conflicts expressed as match sets are rejected by the
   consistency checker: two border matches that would need h and m glued at
   both ends form a cycle. *)

let test_fig3_as_match_set () =
  let inst = two_by_two [ ("a", "d", 4.0); ("b", "c", 3.0) ] in
  let b1 = Cmatch.border inst ~h_frag:0 ~h_site:(Site.make 0 0) ~m_frag:0 ~m_site:(Site.make 1 1) in
  let b2 = Cmatch.border inst ~h_frag:0 ~h_site:(Site.make 1 1) ~m_frag:0 ~m_site:(Site.make 0 0) in
  match (b1, b2) with
  | Some b1, Some b2 ->
      check_bool "each alone is fine" true
        (Result.is_ok (Solution.of_matches inst [ b1 ])
        && Result.is_ok (Solution.of_matches inst [ b2 ]));
      check_bool "together: cycle rejected" true
        (Result.is_error (Solution.of_matches inst [ b1; b2 ]))
  | _ -> Alcotest.fail "border construction failed"

(* ------------------------------------------------------------------ *)
(* Fig 9: an I1 improvement attempt plugs f into site ḡ of g after
   preparing a containing site ĝ; fragments plugged inside ĝ are detached
   and fragments overlapping its boundary are restricted.

   Setup: g (M side) of length 6 hosts three H fragments:
     f1 -> g(0,1),  f2 -> g(2,3),  f3 -> g(4,5)
   The newcomer f (worth much more) wants ḡ = g(2,3); preparing ĝ = g(1,4)
   must detach f2 entirely and restrict f1 to g(0,0) and f3 to g(5,5). *)

let fig9_instance () =
  let names = [ "p"; "q"; "r"; "s"; "t"; "u"; "v"; "w"; "x1"; "x2"; "y1"; "y2"; "z1"; "z2" ] in
  let alphabet = Alphabet.of_names names in
  let sym = Alphabet.symbol_of_string alphabet in
  let g = Fragment.make "g" [| sym "p"; sym "q"; sym "r"; sym "s"; sym "t"; sym "u" |] in
  (* f1 = <x1 x2> matches g(0,1); f2 = <y1 y2> matches g(2,3);
     f3 = <z1 z2> matches g(4,5); f = <v w> matches g(2,3) with a much
     higher score. *)
  let sigma =
    Scoring.of_list
      [
        (sym "x1", sym "p", 2.0); (sym "x2", sym "q", 2.0);
        (sym "y1", sym "r", 2.0); (sym "y2", sym "s", 2.0);
        (sym "z1", sym "t", 2.0); (sym "z2", sym "u", 2.0);
        (sym "v", sym "r", 10.0); (sym "w", sym "s", 10.0);
      ]
  in
  Instance.make ~alphabet
    ~h:
      [
        Fragment.make "f1" [| sym "x1"; sym "x2" |];
        Fragment.make "f2" [| sym "y1"; sym "y2" |];
        Fragment.make "f3" [| sym "z1"; sym "z2" |];
        Fragment.make "f" [| sym "v"; sym "w" |];
      ]
    ~m:[ g ] ~sigma

let fig9_initial inst =
  let plug i site =
    Cmatch.full inst ~full_side:Species.H i ~other_frag:0 ~other_site:site
  in
  match
    Solution.of_matches inst
      [ plug 0 (Site.make 0 1); plug 1 (Site.make 2 3); plug 2 (Site.make 4 5) ]
  with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let test_fig9_preparation_semantics () =
  let inst = fig9_instance () in
  let sol = fig9_initial inst in
  check_float "initial score" 12.0 (Solution.score sol);
  match Solution.prepare sol Species.M 0 (Site.make 1 4) with
  | None -> Alcotest.fail "ĝ is not hidden"
  | Some (sol', _freed) ->
      check_bool "valid" true (Result.is_ok (Solution.validate sol'));
      (* f2 detached; f1 restricted to g(0,0); f3 restricted to g(5,5). *)
      check_bool "f2 detached" true (Solution.role sol' Species.H 1 = Solution.Unmatched);
      let site_of i =
        match Solution.matches_on sol' Species.H i with
        | [ m ] -> Cmatch.site_of m Species.M
        | _ -> Alcotest.fail "expected one match"
      in
      check_bool "f1 restricted" true (Site.equal (site_of 0) (Site.make 0 0));
      check_bool "f3 restricted" true (Site.equal (site_of 2) (Site.make 5 5));
      check_float "restricted contributions" 4.0 (Solution.score sol')

let test_fig9_full_improve_takes_the_plug () =
  let inst = fig9_instance () in
  (* From scratch, Full_Improve must discover the layout where f occupies
     g(2,3) (20 points) and f1, f3 keep their slots: 20 + 8 = 28, with f2
     left out. *)
  let sol, _ = Full_improve.solve inst in
  check_float "optimal full solution" 28.0 (Solution.score sol);
  let f_match = Solution.matches_on sol Species.H 3 in
  check_int "f is placed" 1 (List.length f_match);
  check_bool "f sits on g(2,3)" true
    (Site.equal (Cmatch.site_of (List.hd f_match) Species.M) (Site.make 2 3))

(* ------------------------------------------------------------------ *)
(* Fig 13: an I3 attempt breaks the 2-island formed by f1, g1 and the one
   formed by f5, g2, re-marrying across islands when that pays.

   Construction: border-compatible pairs with σ such that the initial
   pairing (A–X, B–Y) is a local trap for I2 alone but I3's simultaneous
   swap to (A–Y, B–X) is strictly better. *)

let fig13_instance () =
  let alphabet = Alphabet.of_names [ "a1"; "a2"; "b1"; "b2"; "x1"; "x2"; "y1"; "y2" ] in
  let sym = Alphabet.symbol_of_string alphabet in
  let sigma =
    Scoring.of_list
      [
        (* suffix(A) with prefix(X): score 5; suffix(A) with prefix(Y): 6 *)
        (sym "a2", sym "x1", 5.0);
        (sym "a2", sym "y1", 6.0);
        (* suffix(B) with prefix(Y): 5; suffix(B) with prefix(X): 6 *)
        (sym "b2", sym "y1", 5.0);
        (sym "b2", sym "x1", 6.0);
      ]
  in
  Instance.make ~alphabet
    ~h:
      [
        Fragment.make "A" [| sym "a1"; sym "a2" |];
        Fragment.make "B" [| sym "b1"; sym "b2" |];
      ]
    ~m:
      [
        Fragment.make "X" [| sym "x1"; sym "x2" |];
        Fragment.make "Y" [| sym "y1"; sym "y2" |];
      ]
    ~sigma

let test_fig13_i3_swap () =
  let inst = fig13_instance () in
  let border h m =
    match
      Cmatch.border inst ~h_frag:h ~h_site:(Site.make 1 1) ~m_frag:m
        ~m_site:(Site.make 0 0)
    with
    | Some b -> b
    | None -> Alcotest.fail "border failed"
  in
  (* Trap state: A–X (5) and B–Y (5). *)
  let sol =
    match Solution.of_matches inst [ border 0 0; border 1 1 ] with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  check_float "trapped at 10" 10.0 (Solution.score sol);
  (* No single I2 improves: every re-marriage must first break an island,
     losing 5 to gain 6 but stranding the other pair (net -4). *)
  let candidates = Border_improve.border_candidates inst in
  let atts = Border_improve.attempts inst candidates sol in
  let improving =
    List.filter
      (fun (a : Improve.attempt) ->
        match a.Improve.apply sol with
        | Some sol' -> Solution.score sol' > Solution.score sol +. 1e-9
        | None -> false)
      atts
  in
  check_bool "some improving attempt exists (it must be an I3)" true (improving <> []);
  List.iter
    (fun (a : Improve.attempt) ->
      let label = a.Improve.label () in
      check_bool "the improving attempts are I3 swaps" true
        (String.length label >= 2 && String.sub label 0 2 = "I3"))
    improving;
  (* The full local search reaches the swapped optimum 12. *)
  let final, _ = Border_improve.solve inst in
  check_float "swap reached" 12.0 (Solution.score final)

(* ------------------------------------------------------------------ *)
(* Long border chains (Fig 6's general shape): islands whose solution
   graph is a path of four fragments.  Our algorithms only emit 1- and
   2-islands, but general consistent sets (e.g. optima) chain further; the
   conjecture builder must lay them out correctly. *)

let chain4_instance () =
  let alphabet = Alphabet.of_names [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ] in
  let sym = Alphabet.symbol_of_string alphabet in
  let sigma =
    Scoring.of_list
      [ (sym "b", sym "c", 2.0); (sym "e", sym "d", 3.0); (sym "f", sym "g", 4.0) ]
  in
  (* h1 = <a b>, h2 = <e f>; m1 = <c d>, m2 = <g h>:
     chain h1 -(b~c)- m1 -(d~e)- h2 -(f~g)- m2. *)
  Instance.make ~alphabet
    ~h:[ Fragment.make "h1" [| sym "a"; sym "b" |]; Fragment.make "h2" [| sym "e"; sym "f" |] ]
    ~m:[ Fragment.make "m1" [| sym "c"; sym "d" |]; Fragment.make "m2" [| sym "g"; sym "h" |] ]
    ~sigma

let test_chain4_conjecture () =
  let inst = chain4_instance () in
  let b h hs m ms =
    match
      Cmatch.border inst ~h_frag:h ~h_site:(Site.make hs hs) ~m_frag:m
        ~m_site:(Site.make ms ms)
    with
    | Some x -> x
    | None -> Alcotest.fail "border failed"
  in
  let matches = [ b 0 1 0 0; b 1 0 0 1; b 1 1 1 0 ] in
  match Solution.of_matches inst matches with
  | Error e -> Alcotest.fail e
  | Ok sol ->
      check_float "chain score" 9.0 (Solution.score sol);
      check_int "one island of four" 1 (List.length (Solution.islands sol));
      check_int "four members" 4 (List.length (List.hd (Solution.islands sol)));
      let conj = Conjecture.of_solution_exn sol in
      check_bool "conjecture valid" true (Result.is_ok (Conjecture.check inst conj));
      check_float "conjecture realizes the chain" 9.0 (Conjecture.score inst conj);
      (* The exact optimum of this instance is the full chain. *)
      check_float "chain is optimal" 9.0 (Exact.solve_score inst);
      (* and the Islands report shows a 2+2 layout *)
      let report = Islands.infer sol in
      let isl = List.hd report.Islands.islands in
      check_int "two H members" 2 (List.length (Islands.members_of_side isl Species.H));
      check_int "two M members" 2 (List.length (Islands.members_of_side isl Species.M))

let test_chain4_reversed_links () =
  (* Same chain but one link uses equal shapes (prefix/prefix), forcing a
     reversed fragment in the layout. *)
  let alphabet = Alphabet.of_names [ "a"; "b"; "c"; "d" ] in
  let sym = Alphabet.symbol_of_string alphabet in
  let sigma = Scoring.of_list [ (sym "a", sym "c'", 5.0) ] in
  let inst =
    Instance.make ~alphabet
      ~h:[ Fragment.make "h" [| sym "a"; sym "b" |] ]
      ~m:[ Fragment.make "m" [| sym "c"; sym "d" |] ]
      ~sigma
  in
  match
    Cmatch.border inst ~h_frag:0 ~h_site:(Site.make 0 0) ~m_frag:0 ~m_site:(Site.make 0 0)
  with
  | None -> Alcotest.fail "prefix/prefix border"
  | Some b ->
      check_bool "reversed orientation" true b.Cmatch.m_reversed;
      check_float "score uses the opposite class" 5.0 b.Cmatch.score;
      let sol = Solution.add_exn (Solution.empty inst) b in
      let conj = Conjecture.of_solution_exn sol in
      check_bool "valid" true (Result.is_ok (Conjecture.check inst conj));
      check_float "realized" 5.0 (Conjecture.score inst conj);
      (* one of the two occurrences must be reversed in the layout *)
      let h_rev = snd (List.hd conj.Conjecture.h_order) in
      let m_rev = snd (List.hd conj.Conjecture.m_order) in
      check_bool "relative orientation flipped" true (h_rev <> m_rev)

let () =
  Alcotest.run "fsa_paper_figures"
    [
      ( "fig3",
        [
          Alcotest.test_case "orientation conflict" `Quick test_fig3_orientation_conflict;
          Alcotest.test_case "order conflict" `Quick test_fig3_order_conflict;
          Alcotest.test_case "as match sets" `Quick test_fig3_as_match_set;
        ] );
      ( "fig9",
        [
          Alcotest.test_case "preparation semantics" `Quick test_fig9_preparation_semantics;
          Alcotest.test_case "Full_Improve plugs f" `Quick test_fig9_full_improve_takes_the_plug;
        ] );
      ( "fig13",
        [ Alcotest.test_case "I3 swap" `Quick test_fig13_i3_swap ] );
      ( "chains",
        [
          Alcotest.test_case "four-fragment chain" `Quick test_chain4_conjecture;
          Alcotest.test_case "reversed link" `Quick test_chain4_reversed_links;
        ] );
    ]
