(* Entry point: `dune exec bench/main.exe [--quick] [e1 .. e11 | timing |
   all]` regenerates every experiment table of DESIGN.md /
   EXPERIMENTS.md. *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let targets = List.filter (fun a -> a <> "--quick") args in
  let run_timing () = Timings.run ~quick () in
  Printf.printf "fsa experiment harness%s\n" (if quick then " (quick mode)" else "");
  match targets with
  | [] | [ "all" ] ->
      Experiments.all ~quick ();
      run_timing ()
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name Experiments.by_name with
          | Some f -> f ~quick ()
          | None when name = "timing" -> run_timing ()
          | None ->
              Printf.eprintf
                "unknown target %s (expected e1..e11, timing, all)\n" name;
              exit 1)
        names
