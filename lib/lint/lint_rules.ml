type scope = {
  file : string;
  in_lib : bool;
  in_bench : bool;
  is_prng : bool;
  in_parallel : bool;
  is_clock : bool;
  in_core : bool;
  in_obs : bool;
}

type meta = { id : string; title : string; remedy : string }

let all_meta =
  [
    {
      id = "R1";
      title = "no polymorphic =, <> or compare with a float operand";
      remedy = "use Tol.equal / Tol.is_zero, or Tol.exactly when exactness is intended";
    };
    {
      id = "R2";
      title = "no naive float accumulation in lib/ or bench/";
      remedy = "use Kahan.create/add/total or Kahan.sum*";
    };
    {
      id = "R3";
      title = "no stdlib Random outside lib/numerics/prng.ml";
      remedy = "thread an explicit Prng.t seeded from the experiment config";
    };
    {
      id = "R4";
      title = "no direct printing from lib/";
      remedy = "emit through Obs sinks or return values to the caller";
    };
    {
      id = "R5";
      title = "every lib/**/*.ml has a matching .mli";
      remedy = "write the interface; unconstrained modules leak representation";
    };
    {
      id = "R6";
      title = "no Obj.magic / Obj.repr";
      remedy = "restructure the types instead of defeating them";
    };
    {
      id = "R7";
      title = "no raw Domain.spawn outside lib/parallel/";
      remedy =
        "run the work through Domain_pool, which keeps the chunk-grid \
         determinism contract auditable";
    };
    {
      id = "R8";
      title =
        "no wall-clock reads (Unix.gettimeofday, Unix.time, Sys.time) \
         outside lib/obs/obs_clock.ml";
      remedy =
        "route timing through Obs_clock, whose monotonic high-water clamp \
         keeps span durations non-negative";
    };
    {
      id = "R10";
      title =
        "planning core (lib/sched, lib/numerics, lib/lifefn) references no \
         io primitive or Gc probe";
      remedy =
        "route instrumentation through the ?obs seam and return values to \
         the caller; io and runtime probes belong in bin/, bench/ or lib/obs";
    };
    {
      id = "R14";
      title =
        "no toplevel mutable state (Hashtbl, Atomic, ref, Buffer, Queue, \
         Stack) in lib/ outside lib/obs";
      remedy =
        "hold the state in an explicit handle the caller passes; chunk \
         closures then capture none, and the library stays bit-reproducible";
    };
    {
      id = "M1";
      title = "no unused [@lint.allow] suppression";
      remedy = "delete the stale attribute";
    };
  ]

open Parsetree

(* A raw finding carries the character span of the offending node so the
   suppression pass can match it against [@lint.allow] attribute spans. *)
type raw = {
  r_rule : string;
  r_loc : Location.t;
  r_msg : string;
  r_start : int;
  r_end : int;
}

type allow_span = {
  a_rule : string;
  a_loc : Location.t;
  a_start : int;
  a_end : int;
}

let float_arith_ops = [ "+."; "-."; "*."; "/."; "~-."; "**" ]

let is_float_operand e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply
      ({ pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ }, _)
    when List.mem op float_arith_ops ->
      true
  | Pexp_constraint
      ( _,
        {
          ptyp_desc = Ptyp_constr ({ txt = Longident.Lident "float"; _ }, []);
          _;
        } ) ->
      true
  | _ -> false

let rec longident_head = function
  | Longident.Lident s -> s
  | Longident.Ldot (l, _) -> longident_head l
  | Longident.Lapply (l, _) -> longident_head l

let deref_of_var name e =
  match e.pexp_desc with
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident "!"; _ }; _ },
        [ (_, { pexp_desc = Pexp_ident { txt = Longident.Lident v; _ }; _ }) ] )
    ->
      String.equal v name
  | _ -> false

let lib_printers =
  [
    "print_string";
    "print_endline";
    "print_newline";
    "print_char";
    "print_int";
    "print_float";
  ]

(* R10's primitives: what the planning core must not reach for. Clock
   reads (R8), Random (R3), Domain.spawn (R7) and the ambient printers R4
   already reports are left to those rules. The fprintf family writes to
   a channel or formatter the caller passes, so it is not listed: the
   effect belongs to whoever supplied the channel. *)
let io_idents =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float"; "print_bytes"; "prerr_string";
    "prerr_endline"; "prerr_newline"; "prerr_char"; "prerr_int";
    "prerr_float"; "prerr_bytes"; "read_line"; "read_int"; "read_int_opt";
    "read_float"; "read_float_opt"; "input_line"; "input_char";
    "input_byte"; "input_value"; "really_input"; "really_input_string";
    "output_string"; "output_char"; "output_byte"; "output_value";
    "output_bytes"; "output_substring"; "open_in"; "open_in_bin";
    "open_out"; "open_out_bin"; "close_in"; "close_out"; "flush";
    "flush_all"; "stdin"; "stdout"; "stderr"; "exit"; "at_exit";
  ]

let sys_io =
  [
    "command"; "getenv"; "getenv_opt"; "file_exists"; "is_directory";
    "is_regular_file"; "readdir"; "remove"; "rename"; "getcwd"; "chdir";
    "mkdir"; "rmdir"; "set_signal"; "signal";
  ]

let gc_probes =
  [
    "stat"; "quick_stat"; "counters"; "minor_words"; "major"; "minor";
    "full_major"; "major_slice"; "compact"; "set"; "create_alarm";
    "delete_alarm"; "finalise"; "finalise_last";
  ]

(* [bound x] holds when [x] is pattern-bound anywhere in the file: an
   unqualified [flush] is then the file's own, not [Stdlib.flush]. *)
let core_primitive ~bound lid =
  let io = Some "an io primitive" in
  match lid with
  | Longident.Lident x ->
      if List.mem x io_idents && not (List.mem x lib_printers || bound x)
      then io
      else None
  | Longident.Ldot (Longident.Lident m, f) -> (
      match (m, f) with
      | "Unix", ("gettimeofday" | "time") -> None
      | ("In_channel" | "Out_channel" | "Unix"), _ -> io
      | "Stdlib", x when List.mem x io_idents -> io
      | ("Printf" | "Format"), "eprintf" -> io
      | "Sys", p when List.mem p sys_io -> io
      | ( "Filename",
          ("temp_file" | "open_temp_file" | "temp_dir" | "set_temp_dir_name")
        ) ->
          io
      | "Marshal", ("to_channel" | "from_channel") -> io
      | "Scanf", ("scanf" | "kscanf") -> io
      | "Gc", p when List.mem p gc_probes -> Some "a Gc probe"
      | _ -> None)
  | _ ->
      if List.mem (longident_head lid) [ "In_channel"; "Out_channel"; "Unix" ]
      then io
      else None

(* Every name a pattern binds anywhere in [str]. The approximation is
   file-wide rather than scope-exact: a local [flush] also hides a
   stdlib [flush] called elsewhere in the same file. *)
let bound_names str =
  let tbl = Hashtbl.create 64 in
  let default = Ast_iterator.default_iterator in
  let iter =
    {
      default with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
              Hashtbl.replace tbl txt ()
          | _ -> ());
          default.pat it p);
    }
  in
  iter.structure iter str;
  Hashtbl.mem tbl

(* Rules of the [@lint.allow "R2"] payload: one string constant naming one
   or more rule ids, separated by spaces or commas. *)
let allow_payload_rules = function
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                _ );
          _;
        };
      ] ->
      let split c l = List.concat_map (String.split_on_char c) l in
      let rules =
        [ s ] |> split ' ' |> split ','
        |> List.filter_map (fun r ->
               let r = String.trim r in
               if String.length r = 0 then None else Some r)
      in
      if rules = [] then None else Some rules
  | _ -> None

let make_checker ~bound (scope : scope) =
  let findings = ref [] in
  let allows = ref [] in
  let report rule loc msg =
    findings :=
      {
        r_rule = rule;
        r_loc = loc;
        r_msg = msg;
        r_start = loc.Location.loc_start.Lexing.pos_cnum;
        r_end = loc.Location.loc_end.Lexing.pos_cnum;
      }
      :: !findings
  in
  let note_attrs attrs (loc : Location.t) =
    List.iter
      (fun (a : attribute) ->
        if String.equal a.attr_name.txt "lint.allow" then
          match allow_payload_rules a.attr_payload with
          | Some rules ->
              List.iter
                (fun r ->
                  allows :=
                    {
                      a_rule = r;
                      a_loc = a.attr_loc;
                      a_start = loc.loc_start.pos_cnum;
                      a_end = loc.loc_end.pos_cnum;
                    }
                    :: !allows)
                rules
          | None ->
              report "E1" a.attr_loc
                "malformed [@lint.allow ...] payload; expected a string of \
                 rule ids like \"R2\" or \"R1,R2\"")
      attrs
  in
  let check_ident lid loc =
    (match lid with
    | Longident.Ldot (Longident.Lident "Obj", ("magic" | "repr")) ->
        report "R6" loc
          "Obj.magic/Obj.repr defeat the type system; restructure the types"
    | _ -> ());
    (match lid with
    | Longident.Ldot (Longident.Lident "Domain", "spawn")
      when not scope.in_parallel ->
        report "R7" loc
          "raw Domain.spawn outside lib/parallel/; run the work through \
           Domain_pool so the determinism contract stays auditable"
    | _ -> ());
    (match lid with
    | Longident.Ldot
        (Longident.Lident "Unix", (("gettimeofday" | "time") as fn))
      when not scope.is_clock ->
        report "R8" loc
          (Printf.sprintf
             "Unix.%s reads the wall clock directly; route timing through \
              Obs_clock"
             fn)
    | Longident.Ldot (Longident.Lident "Sys", "time") when not scope.is_clock
      ->
        report "R8" loc
          "Sys.time reads the process clock directly; route timing through \
           Obs_clock"
    | _ -> ());
    (if (not scope.is_prng) && String.equal (longident_head lid) "Random" then
       report "R3" loc
         "stdlib Random breaks reproducibility; thread an explicit Prng.t");
    (if scope.in_core then
       match core_primitive ~bound lid with
       | Some what ->
           report "R10" loc
             (Printf.sprintf
                "%s is %s in the planning core; route instrumentation \
                 through the ?obs seam or return values to the caller"
                (String.concat "." (Longident.flatten lid))
                what)
       | None -> ());
    if scope.in_lib then
      match lid with
      | Longident.Lident p when List.mem p lib_printers ->
          report "R4" loc
            (Printf.sprintf
               "%s prints directly from lib/; emit through Obs sinks or \
                return values"
               p)
      | Longident.Ldot (Longident.Lident ("Printf" | "Format"), "printf") ->
          report "R4" loc
            "printf prints directly from lib/; emit through Obs sinks or \
             return values"
      | _ -> ()
  in
  let check_expr (e : expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_ident txt loc
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = fn; _ }; _ },
          ((_ :: _ :: _ | [ _ ]) as args) ) -> (
        let poly_cmp =
          match fn with
          | Longident.Lident (("=" | "<>" | "compare") as s) -> Some s
          | Longident.Ldot
              (Longident.Lident "Stdlib", (("=" | "<>" | "compare") as s)) ->
              Some s
          | _ -> None
        in
        (match (poly_cmp, args) with
        | Some op, [ (_, a); (_, b) ]
          when is_float_operand a || is_float_operand b ->
            report "R1" e.pexp_loc
              (Printf.sprintf
                 "polymorphic %s with a float operand; use Tol.equal, \
                  Tol.is_zero or Tol.exactly"
                 op)
        | _ -> ());
        match (fn, args) with
        | ( Longident.Ldot (Longident.Lident ("List" | "Array" | "Seq"), "fold_left"),
            (_, { pexp_desc = Pexp_ident { txt = Longident.Lident "+."; _ }; _ })
            :: _ )
          when scope.in_lib || scope.in_bench ->
            report "R2" e.pexp_loc
              "naive fold_left (+.) accumulation; use Kahan.sum / \
               Kahan.sum_list / Kahan.sum_by"
        | ( Longident.Lident ":=",
            [
              (_, { pexp_desc = Pexp_ident { txt = Longident.Lident v; _ }; _ });
              ( _,
                {
                  pexp_desc =
                    Pexp_apply
                      ( {
                          pexp_desc =
                            Pexp_ident { txt = Longident.Lident "+."; _ };
                          _;
                        },
                        [ (_, lhs); (_, rhs) ] );
                  _;
                } );
            ] )
          when (scope.in_lib || scope.in_bench)
               && (deref_of_var v lhs || deref_of_var v rhs) ->
            report "R2" e.pexp_loc
              (Printf.sprintf
                 "running float accumulation into %s via := !%s +. ...; use \
                  Kahan.create/add/total"
                 v v)
        | _ -> ())
    | _ -> ()
  in
  (* R14: a structure-level binding in lib/ (outside lib/obs) whose
     right-hand side allocates a Hashtbl, an Atomic, a ref, a Buffer, a
     Queue or a Stack outside any function body is module-lifetime mutable
     state — memoization smuggled into the library, or state a
     Domain_pool closure could capture. The scan descends only through constructors that
     evaluate at module init (let/sequence/tuple/record/construct/if/
     apply arguments...); anything else — in particular function and lazy
     bodies, whose allocations are per-call — is skipped, so the local
     scratch tables the planners build inside calls stay legal. *)
  let rec r14_scan_static e =
    let alloc =
      match e.pexp_desc with
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _ :: _) -> (
          match txt with
          | Longident.Ldot
              (Longident.Lident "Hashtbl", (("create" | "of_seq") as fn)) ->
              Some ("Hashtbl." ^ fn)
          | Longident.Ldot (Longident.Lident "Atomic", "make") ->
              Some "Atomic.make"
          | Longident.Lident "ref" -> Some "ref"
          | Longident.Ldot
              (Longident.Lident (("Buffer" | "Queue" | "Stack") as m), "create")
            ->
              Some (m ^ ".create")
          | _ -> None)
      | _ -> None
    in
    (match alloc with
    | Some what ->
        report "R14" e.pexp_loc
          (Printf.sprintf
             "toplevel %s allocates module-lifetime mutable state in lib/; \
              hold the state in an explicit handle the caller passes"
             what)
    | None -> ());
    match e.pexp_desc with
    | Pexp_apply (_, args) -> List.iter (fun (_, a) -> r14_scan_static a) args
    | Pexp_let (_, vbs, body) ->
        List.iter (fun vb -> r14_scan_static vb.pvb_expr) vbs;
        r14_scan_static body
    | Pexp_sequence (a, b) ->
        r14_scan_static a;
        r14_scan_static b
    | Pexp_tuple es | Pexp_array es -> List.iter r14_scan_static es
    | Pexp_record (fields, base) ->
        List.iter (fun (_, v) -> r14_scan_static v) fields;
        Option.iter r14_scan_static base
    | Pexp_construct (_, arg) | Pexp_variant (_, arg) ->
        Option.iter r14_scan_static arg
    | Pexp_constraint (inner, _) | Pexp_open (_, inner) ->
        r14_scan_static inner
    | Pexp_ifthenelse (cond, then_, else_) ->
        r14_scan_static cond;
        r14_scan_static then_;
        Option.iter r14_scan_static else_
    | _ -> ()
  in
  let r14_check_structure str =
    if scope.in_lib && not scope.in_obs then
      List.iter
        (fun si ->
          match si.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter (fun vb -> r14_scan_static vb.pvb_expr) vbs
          | _ -> ())
        str
  in
  let default = Ast_iterator.default_iterator in
  let iter =
    {
      default with
      structure =
        (fun it str ->
          (* Runs for the compilation unit and for each nested [struct]
             — module-lifetime state is module-lifetime wherever the
             module sits. *)
          r14_check_structure str;
          default.structure it str);
      expr =
        (fun it e ->
          note_attrs e.pexp_attributes e.pexp_loc;
          check_expr e;
          default.expr it e);
      value_binding =
        (fun it vb ->
          note_attrs vb.pvb_attributes vb.pvb_loc;
          default.value_binding it vb);
      structure_item =
        (fun it si ->
          (match si.pstr_desc with
          | Pstr_attribute a ->
              (* Floating [@@@lint.allow "..."] suppresses for the whole
                 compilation unit. *)
              note_attrs [ a ]
                {
                  si.pstr_loc with
                  loc_start = { si.pstr_loc.loc_start with pos_cnum = 0 };
                  loc_end = { si.pstr_loc.loc_end with pos_cnum = max_int };
                }
          | _ -> ());
          default.structure_item it si);
      module_binding =
        (fun it mb ->
          note_attrs mb.pmb_attributes mb.pmb_loc;
          default.module_binding it mb);
      module_expr =
        (fun it me ->
          (match me.pmod_desc with
          | Pmod_ident { txt; loc } ->
              if (not scope.is_prng) && String.equal (longident_head txt) "Random"
              then
                report "R3" loc
                  "stdlib Random breaks reproducibility; thread an explicit \
                   Prng.t"
          | _ -> ());
          default.module_expr it me);
      (* Interface-side checks: the same R3 fence applies to aliases
         ([module S = Random]) and opens written in a .mli, and attributes
         on declarations still carry [@lint.allow] spans. *)
      module_type =
        (fun it mt ->
          (match mt.pmty_desc with
          | Pmty_alias { txt; loc }
            when (not scope.is_prng)
                 && String.equal (longident_head txt) "Random" ->
              report "R3" loc
                "stdlib Random breaks reproducibility; thread an explicit \
                 Prng.t"
          | _ -> ());
          default.module_type it mt);
      open_description =
        (fun it od ->
          (if
             (not scope.is_prng)
             && String.equal (longident_head od.popen_expr.txt) "Random"
           then
             report "R3" od.popen_expr.loc
               "stdlib Random breaks reproducibility; thread an explicit \
                Prng.t");
          default.open_description it od);
      module_declaration =
        (fun it md ->
          note_attrs md.pmd_attributes md.pmd_loc;
          default.module_declaration it md);
      value_description =
        (fun it vd ->
          note_attrs vd.pval_attributes vd.pval_loc;
          default.value_description it vd);
      signature_item =
        (fun it si ->
          (match si.psig_desc with
          | Psig_attribute a ->
              (* Floating [@@@lint.allow "..."] in a .mli suppresses for
                 the whole interface. *)
              note_attrs [ a ]
                {
                  si.psig_loc with
                  loc_start = { si.psig_loc.loc_start with pos_cnum = 0 };
                  loc_end = { si.psig_loc.loc_end with pos_cnum = max_int };
                }
          | _ -> ());
          default.signature_item it si);
    }
  in
  (findings, allows, iter)

let check_structure (scope : scope) (str : structure) :
    raw list * allow_span list =
  let findings, allows, iter = make_checker ~bound:(bound_names str) scope in
  iter.structure iter str;
  (!findings, !allows)

let check_signature (scope : scope) (sg : signature) :
    raw list * allow_span list =
  let findings, allows, iter = make_checker ~bound:(fun _ -> false) scope in
  iter.signature iter sg;
  (!findings, !allows)
