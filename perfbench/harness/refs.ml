(* References computed apart from the program's serving and translation
   paths, and the checkers that compare served answers with them.

   The reference for a theory with a finite chase is the null-free part
   of [Chase.Engine.run] on the untranslated source theory; reads are
   evaluated over it by the naive matcher and backtracking join below,
   not by the program's planner, WCOJ or Datalog engine. *)

open Guarded_core

(* Null-free tuples of every relation in a chase result. *)
type index = (string, Term.t list list) Hashtbl.t

(* Every fact of the chase, nulls included: CQs may join through nulls,
   as the theory's certain answers do. *)
let chase theory facts =
  let limits = { Guarded_chase.Engine.max_derivations = 10_000_000; max_depth = None } in
  let r =
    Guarded_chase.Engine.run ~limits ~record_steps:false theory (Database.of_atoms facts)
  in
  if r.Guarded_chase.Engine.outcome <> Guarded_chase.Engine.Saturated then
    failwith "reference chase did not saturate";
  Database.to_list r.Guarded_chase.Engine.db

let index_of facts : index =
  let idx = Hashtbl.create 64 in
  List.iter
    (fun a ->
      if List.for_all Term.is_const (Atom.args a) then
        Hashtbl.replace idx (Atom.rel a)
          (Atom.args a :: Option.value ~default:[] (Hashtbl.find_opt idx (Atom.rel a))))
    facts;
  idx

let tuples idx rel = Option.value ~default:[] (Hashtbl.find_opt idx rel)

let tuple_text args = Fmt.str "(%a)" Fmt.(list ~sep:(any ", ") Term.pp) args

let canon lines = List.sort_uniq String.compare lines

(* Naive CQ evaluation by backtracking over a fact list, per disjunct. *)
let eval_cq facts (cq : Guarded_cq.Cq.t) =
  let by_rel = Hashtbl.create 16 in
  List.iter
    (fun a ->
      Hashtbl.replace by_rel (Atom.rel a)
        (a :: Option.value ~default:[] (Hashtbl.find_opt by_rel (Atom.rel a))))
    facts;
  let out = ref [] in
  let rec go subst = function
    | [] ->
      let args =
        List.map (fun v -> List.assoc v subst) cq.Guarded_cq.Cq.answer_vars
      in
      if List.for_all Term.is_const args then out := tuple_text args :: !out
    | atom :: rest ->
      List.iter
        (fun fact ->
          let rec unify s pats terms =
            match (pats, terms) with
            | [], [] -> Some s
            | Term.Var v :: ps, t :: ts -> (
              match List.assoc_opt v s with
              | Some t' -> if Term.equal t t' then unify s ps ts else None
              | None -> unify ((v, t) :: s) ps ts)
            | p :: ps, t :: ts -> if Term.equal p t then unify s ps ts else None
            | _ -> None
          in
          match unify subst (Atom.args atom) (Atom.args fact) with
          | Some s -> go s rest
          | None -> ())
        (Option.value ~default:[] (Hashtbl.find_opt by_rel (Atom.rel atom)))
  in
  go [] cq.Guarded_cq.Cq.body;
  !out

(* The answer lines a read must return over a reference ([idx] for
   relation reads, [all] for CQs). *)
let eval_read ~idx ~all text =
  match Guarded_server.Wire.parse_request text with
  | Ok (Guarded_server.Wire.Query { rel; pattern = None }) ->
    canon (List.map tuple_text (tuples idx rel))
  | Ok (Guarded_server.Wire.Query { rel; pattern = Some ps }) ->
    let matches args =
      List.length args = List.length ps
      && List.for_all2 (fun p t -> Term.is_var p || Term.equal p t) ps args
    in
    canon (List.map tuple_text (List.filter matches (tuples idx rel)))
  | Ok (Guarded_server.Wire.Cq (ucq, _)) ->
    canon (List.concat_map (eval_cq all) ucq.Guarded_cq.Ucq.disjuncts)
  | Ok _ -> failwith ("not a read: " ^ text)
  | Error m -> failwith ("unparseable read " ^ text ^ ": " ^ m)

(* The answer lines of a served [ANSWERS] reply, or [None] when it is
   anything else (an [ERROR], say) or its count disagrees with its
   lines. *)
let answer_lines response =
  match String.split_on_char '\n' response with
  | header :: rest when String.length header > 8 && String.sub header 0 8 = "ANSWERS " -> (
    let rest = List.filter (fun l -> l <> "") rest in
    match int_of_string_opt (String.sub header 8 (String.length header - 8)) with
    | Some n when n = List.length rest -> Some (canon rest)
    | _ -> None)
  | _ -> None

(* A reference: the answer lines for one state. Memoized per group so a
   run checks each distinct read once. *)
type reference = { r_idx : index; r_all : Atom.t list }

let reference theory facts =
  let all = chase theory facts in
  { r_idx = index_of all; r_all = all }

let expected r text = eval_read ~idx:r.r_idx ~all:r.r_all text
