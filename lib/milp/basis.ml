type vstat = Basic | At_lower | At_upper | Free_zero

(* One byte per column: snapshots ride in every open node's payload. *)
type t = {
  ncols : int;
  nrows : int;
  basis : int array;
  stat : Bytes.t;
  factor : Lu.factor option;
}

let code = function Basic -> '\000' | At_lower -> '\001' | At_upper -> '\002' | Free_zero -> '\003'

let status b j =
  match Bytes.get b.stat j with
  | '\000' -> Basic
  | '\001' -> At_lower
  | '\002' -> At_upper
  | _ -> Free_zero

let make ~ncols ~nrows ~basis ~stat ~factor =
  { ncols; nrows;
    basis = Array.copy basis;
    stat = Bytes.init (Array.length stat) (fun j -> code stat.(j));
    factor }

let compatible b ~ncols ~nrows =
  b.ncols = ncols && b.nrows = nrows
  && Array.length b.basis = nrows
  && Bytes.length b.stat = ncols + (2 * nrows)
  && (match b.factor with
     | None -> true
     | Some f -> Lu.factor_dim f = nrows)

(* Grow the snapshot in place for appended cut rows: the column layout
   is positional (structurals, then slacks, then artificials), so the
   artificial block shifts up by [k] and every stored column index is
   remapped accordingly.  With all new slacks basic, the grown basis
   matrix is the block triangular [[B 0] [V I]]; the stored factor is
   extended rather than rebuilt — see {!Lu.extend_rows}. *)
let append_rows b (rows : (int * float) array array) =
  let k = Array.length rows in
  if k = 0 then b
  else begin
    let n = b.ncols and m = b.nrows in
    let m' = m + k in
    let remap j = if j >= n + m then j + k else j in
    let basis = Array.make m' 0 in
    for i = 0 to m - 1 do
      basis.(i) <- remap b.basis.(i)
    done;
    for t = 0 to k - 1 do
      basis.(m + t) <- n + m + t
      (* the new slacks *)
    done;
    let stat = Bytes.make (n + (2 * m')) (code At_lower) in
    Bytes.blit b.stat 0 stat 0 (n + m);
    Bytes.fill stat (n + m) k (code Basic);
    Bytes.blit b.stat (n + m) stat (n + m + k) m;
    (* the sealed artificials of the new rows stay At_lower *)
    let factor =
      match b.factor with
      | None -> None
      | Some f ->
          (* V_{t,i} = row t's coefficient on the column basic in row i
             (only structural columns can appear in a cut row; slacks
             and artificials get 0).  The column -> basis-position map
             is a flat array: this runs once per cut round per node,
             and the dense lookup beats a hashtable on both allocation
             and probe cost. *)
          let pos = Array.make n (-1) in
          Array.iteri (fun i j -> if j < n then pos.(j) <- i) b.basis;
          let vrows =
            Array.map
              (fun row ->
                let ents = ref [] in
                Array.iter
                  (fun (j, a) ->
                    if a <> 0. && j < n && pos.(j) >= 0 then
                      ents := (pos.(j), a) :: !ents)
                  row;
                Array.of_list (List.rev !ents))
              rows
          in
          Some (Lu.extend_rows f vrows)
    in
    { ncols = n; nrows = m'; basis; stat; factor }
  end

let append_row b row = append_rows b [| row |]

(* Structural sanity: every row has a basic column in range, each basic
   column is basic in exactly one row, and the statuses agree.  A basis
   that fails this check is stale (or corrupted) and must not be warm
   started from. *)
let well_formed b =
  let ntot = b.ncols + (2 * b.nrows) in
  let ok = ref (Array.length b.basis = b.nrows && Bytes.length b.stat = ntot) in
  let seen = Bytes.make (if !ok then ntot else 0) '\000' in
  if !ok then
    Array.iter
      (fun j ->
        if j < 0 || j >= ntot || Bytes.get seen j <> '\000' || status b j <> Basic then
          ok := false
        else Bytes.set seen j '\001')
      b.basis;
  if !ok then
    for j = 0 to ntot - 1 do
      if status b j = Basic && Bytes.get seen j = '\000' then ok := false
    done;
  !ok
