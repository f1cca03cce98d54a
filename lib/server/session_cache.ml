(* Template-keyed LRU cache of warm solver sessions.

   A cached value is stateful and must be used by one request at a
   time, so the API is checkout/checkin rather than find: checkout
   hands the value out exclusively (a second request for the same key
   blocks until checkin — serializing on the warm session is exactly
   what makes it warm), and checkin returns it, moving the entry to
   the front of the LRU order.  Eviction only considers idle entries;
   a checked-out value is never dropped under its user.

   [capacity = 0] is the cold mode ([archexd --cache 0]): every
   checkout builds a fresh value and checkin discards it. *)

type ('k, 'v) entry = {
  e_key : 'k;
  mutable e_value : 'v option;  (* None while checked out *)
  mutable e_stamp : int;  (* LRU clock at last use *)
}

type ('k, 'v) t = {
  capacity : int;
  lock : Mutex.t;
  cond : Condition.t;
  mutable entries : ('k, 'v) entry list;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Session_cache.create: capacity must be >= 0";
  {
    capacity;
    lock = Mutex.create ();
    cond = Condition.create ();
    entries = [];
    clock = 0;
    hits = 0;
    misses = 0;
  }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* Drop the stalest idle entries until at most [capacity] remain.
   Checked-out entries ([e_value = None]) are pinned. *)
let evict_to_capacity t =
  let n = List.length t.entries in
  if n > t.capacity then begin
    let idle, pinned = List.partition (fun e -> e.e_value <> None) t.entries in
    let idle =
      List.sort (fun a b -> compare b.e_stamp a.e_stamp) idle (* freshest first *)
    in
    let keep = max 0 (t.capacity - List.length pinned) in
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: rest -> x :: take (k - 1) rest
    in
    t.entries <- pinned @ take keep idle
  end

let checkout t key ~create:build =
  if t.capacity = 0 then begin
    Mutex.lock t.lock;
    t.misses <- t.misses + 1;
    Mutex.unlock t.lock;
    (build (), false)
  end
  else begin
    Mutex.lock t.lock;
    let rec claim () =
      match List.find_opt (fun e -> e.e_key = key) t.entries with
      | Some e -> (
          match e.e_value with
          | Some v ->
              e.e_value <- None;
              e.e_stamp <- tick t;
              t.hits <- t.hits + 1;
              Mutex.unlock t.lock;
              (v, true)
          | None ->
              (* Checked out by another request: wait for its checkin
                 (or for the entry to be withdrawn on failure). *)
              Condition.wait t.cond t.lock;
              claim ())
      | None ->
          let e = { e_key = key; e_value = None; e_stamp = tick t } in
          t.entries <- e :: t.entries;
          t.misses <- t.misses + 1;
          Mutex.unlock t.lock;
          (* Build outside the lock: encoding a template can take a
             while and must not stall unrelated checkouts.  The pinned
             placeholder keeps concurrent requests for this key waiting
             above instead of double-building. *)
          (try build ()
           with ex ->
             Mutex.lock t.lock;
             t.entries <- List.filter (fun e' -> e' != e) t.entries;
             Condition.broadcast t.cond;
             Mutex.unlock t.lock;
             raise ex)
          |> fun v -> (v, false)
    in
    claim ()
  end

let checkin t key v =
  if t.capacity = 0 then ()
  else begin
    Mutex.lock t.lock;
    (match List.find_opt (fun e -> e.e_key = key) t.entries with
    | Some e ->
        e.e_value <- Some v;
        e.e_stamp <- tick t
    | None ->
        t.entries <- { e_key = key; e_value = Some v; e_stamp = tick t } :: t.entries);
    evict_to_capacity t;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock
  end

let discard t key =
  if t.capacity > 0 then begin
    Mutex.lock t.lock;
    t.entries <- List.filter (fun e -> e.e_key <> key) t.entries;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock
  end

let length t =
  Mutex.lock t.lock;
  let n = List.length t.entries in
  Mutex.unlock t.lock;
  n

let stats t =
  Mutex.lock t.lock;
  let r = (t.hits, t.misses) in
  Mutex.unlock t.lock;
  r
