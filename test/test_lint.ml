(* cslint rule fixtures: each rule gets a positive case, a suppressed
   case, and a clean case, asserted on exact finding counts and
   locations. Fixtures are inline strings fed through
   Lint_engine.lint_source, so the tests exercise the same parse +
   iterate + suppress pipeline as the CLI without touching the
   filesystem. *)

let lint ?(path = "lib/fixture.ml") src =
  match Lint_engine.lint_source ~path src with
  | Ok r -> r
  | Error e -> Alcotest.failf "unexpected parse error: %s" e

let rules (r : Lint_engine.report) =
  List.map (fun (f : Lint_finding.t) -> f.rule) r.findings

let check_rules name expected r =
  Alcotest.(check (list string)) name expected (rules r)

(* ---- R1: polymorphic comparison with float operands ---- *)

let test_r1_literal () =
  let r = lint "let f x = x = 1.0\n" in
  check_rules "literal rhs" [ "R1" ] r;
  let f = List.hd r.findings in
  Alcotest.(check int) "line" 1 f.Lint_finding.line;
  Alcotest.(check int) "col" 10 f.Lint_finding.col

let test_r1_arith_and_compare () =
  let r =
    lint "let f a b c = (a +. b) <> c\nlet g x = compare (x /. 2.0) 1\n"
  in
  check_rules "arith operands" [ "R1"; "R1" ] r

let test_r1_clean_and_suppressed () =
  check_rules "int = is fine" []
    (lint "let f x = x = 1\nlet g a b = Tol.equal a b\n");
  (* An ordering comparison on floats is not R1's business. *)
  check_rules "ordering is fine" [] (lint "let f x = x <= 1.0\n");
  let r = lint "let f x = (x = 1.0) [@lint.allow \"R1\"]\n" in
  check_rules "suppressed" [] r;
  Alcotest.(check int) "counted" 1 r.suppressed

(* ---- R2: naive float accumulation (lib/ and bench/ only) ---- *)

let test_r2_fold () =
  check_rules "List.fold_left" [ "R2" ]
    (lint "let s xs = List.fold_left ( +. ) 0.0 xs\n");
  check_rules "Array.fold_left" [ "R2" ]
    (lint ~path:"bench/fixture.ml" "let s a = Array.fold_left ( +. ) 0.0 a\n");
  (* A non-float fold is fine; so is a fold with a custom combiner. *)
  check_rules "int fold" [] (lint "let s xs = List.fold_left ( + ) 0 xs\n");
  check_rules "combiner" []
    (lint "let s xs = List.fold_left (fun a x -> a +. exp x) 0.0 xs\n")

let test_r2_ref_accumulation () =
  let src =
    "let s xs =\n\
    \  let acc = ref 0.0 in\n\
    \  List.iter (fun x -> acc := !acc +. x) xs;\n\
    \  !acc\n"
  in
  let r = lint src in
  check_rules "ref accumulation" [ "R2" ] r;
  Alcotest.(check int) "line" 3 (List.hd r.findings).Lint_finding.line;
  (* Flipped operand order still counts; -. does not (not accumulation). *)
  check_rules "flipped" [ "R2" ]
    (lint "let f a x = a := x +. !a\n");
  check_rules "subtraction" [] (lint "let f a x = a := !a -. x\n");
  (* Accumulating into a different ref than the one dereferenced is a
     plain assignment, not the accumulation idiom. *)
  check_rules "different ref" [] (lint "let f a b x = a := !b +. x\n")

let test_r2_scope_and_suppression () =
  let src = "let s xs = List.fold_left ( +. ) 0.0 xs\n" in
  check_rules "examples exempt" [] (lint ~path:"examples/fixture.ml" src);
  check_rules "bin exempt" [] (lint ~path:"bin/fixture.ml" src);
  let r =
    lint
      "let f a x = (a := !a +. x) [@lint.allow \"R2\"]\nlet g a x = a := !a +. x\n"
  in
  check_rules "one suppressed one not" [ "R2" ] r;
  Alcotest.(check int) "line of live finding" 2
    (List.hd r.findings).Lint_finding.line

(* ---- R3: stdlib Random ---- *)

let test_r3 () =
  check_rules "value use" [ "R3" ] (lint "let r () = Random.float 1.0\n");
  check_rules "submodule" [ "R3" ]
    (lint "let r st = Random.State.float st 1.0\n");
  check_rules "open" [ "R3" ] (lint "open Random\n");
  check_rules "prng.ml exempt" []
    (lint ~path:"lib/numerics/prng.ml" "let r () = Random.float 1.0\n");
  check_rules "file-wide allow" []
    (lint "[@@@lint.allow \"R3\"]\nlet r () = Random.bool ()\n")

(* ---- R4: printing from lib/ ---- *)

let test_r4 () =
  check_rules "print_endline" [ "R4" ] (lint "let p () = print_endline \"x\"\n");
  check_rules "Printf.printf" [ "R4" ]
    (lint "let p n = Printf.printf \"%d\" n\n");
  check_rules "sprintf fine" []
    (lint "let p n = Printf.sprintf \"%d\" n\n");
  check_rules "bin exempt" []
    (lint ~path:"bin/fixture.ml" "let p () = print_endline \"x\"\n")

(* ---- R5: .mli pairing, both directions ---- *)

let test_r5 () =
  let fs =
    Lint_engine.missing_mli_findings
      [ "lib/a.ml"; "lib/b.ml"; "lib/b.mli"; "bin/c.ml"; "lib/dune" ]
  in
  Alcotest.(check (list string))
    "only unpaired lib ml" [ "R5" ]
    (List.map (fun (f : Lint_finding.t) -> f.rule) fs);
  Alcotest.(check string) "file" "lib/a.ml" (List.hd fs).Lint_finding.file

let test_r5_orphan_mli () =
  let fs =
    Lint_engine.missing_mli_findings
      [ "lib/gone.mli"; "lib/b.ml"; "lib/b.mli"; "bin/c.mli" ]
  in
  Alcotest.(check (list string))
    "orphan lib mli" [ "R5" ]
    (List.map (fun (f : Lint_finding.t) -> f.rule) fs);
  let f = List.hd fs in
  Alcotest.(check string) "file" "lib/gone.mli" f.Lint_finding.file;
  Alcotest.(check bool) "says orphan" true
    (String.length f.Lint_finding.message >= 6
    && String.sub f.Lint_finding.message 0 6 = "orphan")

(* ---- interfaces are linted, not skipped ---- *)

let test_mli_rules () =
  check_rules "Random alias in mli" [ "R3" ]
    (lint ~path:"lib/fixture.mli" "module R = Random\n");
  check_rules "open Random in mli" [ "R3" ]
    (lint ~path:"lib/fixture.mli" "open Random\n");
  check_rules "prng.mli exempt" []
    (lint ~path:"lib/numerics/prng.mli" "module R = Random\n");
  check_rules "plain mli clean" []
    (lint ~path:"lib/fixture.mli" "val f : float -> float\n");
  (* File-wide allows parse and suppress in interfaces too. *)
  let r =
    lint ~path:"lib/fixture.mli"
      "[@@@lint.allow \"R3\"]\nmodule R = Random\n"
  in
  check_rules "mli file-wide allow" [] r;
  Alcotest.(check int) "counted" 1 r.suppressed

(* ---- R6: Obj.magic / Obj.repr ---- *)

let test_r6 () =
  check_rules "magic" [ "R6" ] (lint "let c x = Obj.magic x\n");
  check_rules "repr" [ "R6" ] (lint "let c x = Obj.repr x\n");
  check_rules "benign Obj fine" [] (lint "let t x = Obj.tag x\n");
  check_rules "suppressed" []
    (lint "let c x = (Obj.magic x) [@lint.allow \"R6\"]\n")

(* ---- R7: raw Domain.spawn outside lib/parallel/ ---- *)

let test_r7 () =
  check_rules "spawn in lib" [ "R7" ]
    (lint "let d f = Domain.spawn f\n");
  check_rules "spawn in bin" [ "R7" ]
    (lint ~path:"bin/fixture.ml" "let d f = Domain.spawn f\n");
  check_rules "lib/parallel exempt" []
    (lint ~path:"lib/parallel/domain_pool.ml" "let d f = Domain.spawn f\n");
  (* The rest of the Domain API is fine anywhere — only spawn creates
     execution contexts the pool can't account for. *)
  check_rules "join fine" [] (lint "let j d = Domain.join d\n");
  check_rules "suppressed" []
    (lint "let d f = (Domain.spawn f) [@lint.allow \"R7\"]\n")

(* ---- R8: wall-clock reads outside lib/obs/obs_clock.ml ---- *)

let test_r8 () =
  check_rules "gettimeofday in lib" [ "R8" ]
    (lint "let now () = Unix.gettimeofday ()\n");
  check_rules "Unix.time in bin" [ "R8" ]
    (lint ~path:"bin/fixture.ml" "let now () = Unix.time ()\n");
  check_rules "Sys.time in lib" [ "R8" ]
    (lint "let cpu () = Sys.time ()\n");
  check_rules "obs_clock exempt" []
    (lint ~path:"lib/obs/obs_clock.ml" "let now () = Unix.gettimeofday ()\n");
  (* The rest of Unix/Sys stays available — only the clocks are fenced. *)
  check_rules "other Unix fine" [] (lint "let pid () = Unix.getpid ()\n");
  check_rules "Sys.argv fine" [] (lint "let argv () = Sys.argv\n");
  check_rules "suppressed" []
    (lint "let now () = (Unix.time () [@lint.allow \"R8\"])\n")

let test_r14 () =
  let sched = "lib/sched/fixture.ml" in
  check_rules "toplevel Hashtbl in sched" [ "R14" ]
    (lint ~path:sched "let memo = Hashtbl.create 16\n");
  check_rules "toplevel Hashtbl.of_seq in sched" [ "R14" ]
    (lint ~path:sched "let memo = Hashtbl.of_seq Seq.empty\n");
  check_rules "toplevel Atomic in sched" [ "R14" ]
    (lint ~path:sched "let gen = Atomic.make 0\n");
  check_rules "toplevel ref in sched" [ "R14" ]
    (lint ~path:sched "let last = ref None\n");
  (* The allocation can hide under static structure... *)
  check_rules "tupled cache" [ "R14"; "R14" ]
    (lint ~path:sched "let caches = (Hashtbl.create 4, Hashtbl.create 4)\n");
  check_rules "let-bound then returned" [ "R14" ]
    (lint ~path:sched "let memo = let h = Hashtbl.create 4 in h\n");
  check_rules "nested module" [ "R14" ]
    (lint ~path:sched
       "module Cache = struct let table = Hashtbl.create 8 end\n");
  (* ...but per-call state inside a function body is not module state. *)
  check_rules "function-local Hashtbl fine" []
    (lint ~path:sched
       "let f xs = let h = Hashtbl.create 16 in List.iter (fun x -> \
        Hashtbl.replace h x x) xs; h\n");
  check_rules "function-local ref fine" []
    (lint ~path:sched "let count xs = let n = ref 0 in List.iter (fun _ -> \
                       incr n) xs; !n\n");
  check_rules "toplevel Buffer" [ "R14" ]
    (lint ~path:sched "let scratch = Buffer.create 64\n");
  check_rules "toplevel Queue and Stack" [ "R14"; "R14" ]
    (lint ~path:sched "let q = Queue.create ()\nlet s = Stack.create ()\n");
  (* Every lib/ directory is fenced except lib/obs, which owns the
     process-lifetime registries. *)
  check_rules "lib/sim fenced" [ "R14" ]
    (lint ~path:"lib/sim/fixture.ml" "let memo = Hashtbl.create 16\n");
  check_rules "lib/obs exempt" []
    (lint ~path:"lib/obs/fixture.ml" "let memo = Hashtbl.create 16\n");
  check_rules "bin exempt" []
    (lint ~path:"bin/fixture.ml" "let memo = Hashtbl.create 16\n");
  check_rules "suppressed" []
    (lint ~path:sched
       "let memo = (Hashtbl.create 16 [@lint.allow \"R14\"])\n")

(* ---- R10: io primitives and Gc probes in the planning core ---- *)

let test_r10 () =
  let sched = "lib/sched/fixture.ml" in
  check_rules "Sys.getenv_opt in lifefn" [ "R10" ]
    (lint ~path:"lib/lifefn/fixture.ml"
       "let tuned () = Sys.getenv_opt \"CS_TUNE\"\n");
  check_rules "prerr_endline and Gc.quick_stat in sched" [ "R10"; "R10" ]
    (lint ~path:sched
       "let plan c = prerr_endline \"planning\"; c\n\
        let words () = (Gc.quick_stat ()).Gc.minor_words\n");
  check_rules "channels and Unix io" [ "R10"; "R10"; "R10" ]
    (lint ~path:"lib/numerics/fixture.ml"
       "let load p = In_channel.with_open_bin p In_channel.input_all\n\
        let pid () = Unix.getpid ()\n");
  check_rules "ambient eprintf" [ "R10" ]
    (lint ~path:sched
       "let warn n = Printf.eprintf \"%d\\n\" n\n");
  (* A name the file binds itself is not the stdlib primitive. *)
  check_rules "file-local flush" []
    (lint ~path:sched
       "let probe xs =\n\
       \  let acc = ref [] in\n\
       \  let flush () = let r = !acc in acc := []; r in\n\
       \  List.iter (fun x -> acc := x :: !acc) xs;\n\
       \  flush ()\n");
  (* R4 already reports the ambient printers; R10 does not repeat it. *)
  check_rules "print_endline stays R4" [ "R4" ]
    (lint ~path:sched "let plan c = print_endline \"planning\"; c\n");
  (* fprintf writes to the channel the caller passes. *)
  check_rules "fprintf fine" []
    (lint ~path:sched "let pp oc x = Printf.fprintf oc \"%g\" x\n");
  (* Outside the core the same references are legal. *)
  check_rules "sim exempt" []
    (lint ~path:"lib/sim/fixture.ml" "let tuned () = Sys.getenv_opt \"X\"\n");
  check_rules "obs exempt" []
    (lint ~path:"lib/obs/fixture.ml" "let words () = Gc.quick_stat ()\n");
  check_rules "bin exempt" []
    (lint ~path:"bin/fixture.ml" "let () = prerr_endline \"hi\"\n");
  check_rules "suppressed" []
    (lint ~path:sched
       "let words () = (Gc.quick_stat () [@lint.allow \"R10\"])\n")

(* ---- the whole-program fixtures, checked file by file ----

   These fixtures were written for the interprocedural effect pass. The
   per-file R8, R10 and R14 rules now cover them: every effect sits in
   the file of its primitive, so it is reported there. *)

let test_deep_r10_clock_in_core () =
  (* Clock reads stay with R8, across the core like everywhere else; a
     caller in another core module is clean, as the read is reported
     where it happens. *)
  check_rules "clock in core" [ "R8" ]
    (lint ~path:"lib/sched/helper.ml" "let now () = Unix.gettimeofday ()\n");
  check_rules "caller of a clock read" []
    (lint ~path:"lib/sched/guideline.ml"
       "let plan c = Helper.now () +. c\nlet shape c = c *. 2.0\n")

let test_deep_r10_domain_allowed () =
  (* The core parallelises through Domain_pool by design. *)
  check_rules "domain allowed" []
    (lint ~path:"lib/parallel/domain_pool.ml"
       "let run ~chunks f = Domain.join (Domain.spawn (fun () -> f chunks))\n");
  check_rules "domain allowed in core" []
    (lint ~path:"lib/sched/batch.ml"
       "let plan_batch pool n f = Domain_pool.run ~chunks:n (fun i -> f i)\n")

(* With no toplevel mutable state in lib/, no Domain_pool closure can
   capture any: a captured toplevel ref is reported where it is
   allocated, whether the closure writes it, reads it or reaches it
   through a callee. The writes are also naive float accumulation. *)
let tally = "lib/sim/tally.ml"

let test_deep_r11_mutable_capture () =
  check_rules "pool closure mutates a toplevel ref" [ "R14"; "R2" ]
    (lint ~path:tally
       "let total = ref 0.0\n\
        let go n =\n\
       \  Domain_pool.run ~chunks:n (fun i -> total := !total +. float_of_int i)\n");
  (* Chunk-local state is the sanctioned shape. *)
  check_rules "chunk-local ref: R2 only, no R14" [ "R2" ]
    (lint ~path:tally
       "let go n =\n\
       \  Domain_pool.run ~chunks:n (fun i ->\n\
       \    let acc = ref 0.0 in\n\
       \    acc := !acc +. float_of_int i; !acc)\n")

let test_deep_r11_read_only_capture () =
  check_rules "pool closure reads a toplevel ref" [ "R14" ]
    (lint ~path:tally
       "let total = ref 0.0\n\
        let go n = Domain_pool.run ~chunks:n (fun i -> !total +. float_of_int i)\n")

let test_deep_r11_indirect_capture () =
  check_rules "pool closure reaches a toplevel ref through a callee"
    [ "R14"; "R2" ]
    (lint ~path:tally
       "let total = ref 0.0\n\
        let bump x = total := !total +. x\n\
        let go n = Domain_pool.run ~chunks:n (fun i -> bump (float_of_int i))\n")

(* ---- malformed suppression payloads, parse errors ---- *)

let test_malformed_allow () =
  let r = lint "let f x = (x = 1.0) [@lint.allow]\n" in
  (* The R1 finding survives and the bad attribute is itself reported. *)
  Alcotest.(check (list string))
    "E1 plus live R1" [ "E1"; "R1" ]
    (List.sort_uniq String.compare (rules r))

let test_parse_error () =
  match Lint_engine.lint_source ~path:"lib/bad.ml" "let let let\n" with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error e ->
      Alcotest.(check bool) "names the file" true
        (String.length e > 0
        && String.sub e 0 (min 10 (String.length e)) = "lib/bad.ml")

(* ---- M1: stale suppressions ---- *)

let test_m1_unused_allow () =
  (* The comparison is on ints, so the R1 allow suppresses nothing. *)
  let r = lint "let f x = (x = 1) [@lint.allow \"R1\"]\n" in
  check_rules "stale allow reported" [ "M1" ] r;
  Alcotest.(check int) "nothing suppressed" 0 r.suppressed;
  (* A used allow is not stale. *)
  check_rules "used allow silent" []
    (lint "let f x = (x = 1.0) [@lint.allow \"R1\"]\n");
  (* Every rule runs on every file, so an allow naming a rule that
     fires nowhere here is stale too. *)
  check_rules "allow outside the rule's scope is stale" [ "M1" ]
    (lint "let f x = x [@lint.allow \"R10\"]\n")

let test_rule_metadata_complete () =
  Alcotest.(check (list string))
    "rule ids"
    [
      "R1"; "R2"; "R3"; "R4"; "R5"; "R6"; "R7"; "R8"; "R10"; "R14"; "M1";
    ]
    (List.map (fun (m : Lint_rules.meta) -> m.id) Lint_rules.all_meta)

let () =
  Alcotest.run "lint"
    [
      ( "r1",
        [
          Alcotest.test_case "float literal" `Quick test_r1_literal;
          Alcotest.test_case "arith and compare" `Quick test_r1_arith_and_compare;
          Alcotest.test_case "clean and suppressed" `Quick
            test_r1_clean_and_suppressed;
        ] );
      ( "r2",
        [
          Alcotest.test_case "fold_left (+.)" `Quick test_r2_fold;
          Alcotest.test_case "ref accumulation" `Quick test_r2_ref_accumulation;
          Alcotest.test_case "scope and suppression" `Quick
            test_r2_scope_and_suppression;
        ] );
      ("r3", [ Alcotest.test_case "stdlib Random" `Quick test_r3 ]);
      ("r4", [ Alcotest.test_case "printing from lib" `Quick test_r4 ]);
      ( "r5",
        [
          Alcotest.test_case "mli pairing" `Quick test_r5;
          Alcotest.test_case "orphan mli" `Quick test_r5_orphan_mli;
        ] );
      ("mli", [ Alcotest.test_case "interface rules" `Quick test_mli_rules ]);
      ("r6", [ Alcotest.test_case "Obj escape hatches" `Quick test_r6 ]);
      ("r7", [ Alcotest.test_case "raw Domain.spawn" `Quick test_r7 ]);
      ("r8", [ Alcotest.test_case "wall-clock reads" `Quick test_r8 ]);
      ( "r10",
        [ Alcotest.test_case "core io and gc fence" `Quick test_r10 ] );
      ("r14", [ Alcotest.test_case "memo state fence" `Quick test_r14 ]);
      ( "deep",
        [
          Alcotest.test_case "R10 clock in core" `Quick
            test_deep_r10_clock_in_core;
          Alcotest.test_case "R10 domain allowed" `Quick
            test_deep_r10_domain_allowed;
          Alcotest.test_case "R11 mutable capture" `Quick
            test_deep_r11_mutable_capture;
          Alcotest.test_case "R11 read-only capture" `Quick
            test_deep_r11_read_only_capture;
          Alcotest.test_case "R11 indirect capture" `Quick
            test_deep_r11_indirect_capture;
        ] );
      ("m1", [ Alcotest.test_case "unused allows" `Quick test_m1_unused_allow ]);
      ( "machinery",
        [
          Alcotest.test_case "malformed allow" `Quick test_malformed_allow;
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "rule metadata" `Quick test_rule_metadata_complete;
        ] );
    ]
