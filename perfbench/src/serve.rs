//! The `serve_mixed` workload: seeded object histories of every ADT kind,
//! pre-encoded in the wire format and streamed over two loopback
//! connections into an in-process monitoring server, plus the traced
//! in-process passes that split its time between wire, engine and shard.

use std::collections::{BTreeSet, HashMap};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use lineup::{AdtKind, Event, History, HistoryCache, Value};
use lineup_bench::histories::{ambiguous_history, unambiguous_history, violating_history};
use lineup_server::{
    ingest_stream, Engine, EngineConfig, Server, ServerConfig, Shard, ShardConfig,
};
use lineup_wire::{encode_record, FrameReader, Record, VERSION};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::trace::{SpanId, Tracer};

/// Client connections streaming into the server.
pub const CONNECTIONS: usize = 2;
/// Objects per batch; a batch is sent and then waited on until every one
/// of its objects is retired.
const BATCH_OBJECTS: usize = 48;
const BATCHES: usize = 4;
/// Completed operations of a value-unambiguous object: a few windows of
/// the default 512-op target, decided by the specialized monitors.
const UNAMBIGUOUS_OPS: usize = 1_500;
/// Operations of an object over pooled duplicate values: its windows are
/// held and go to the Wing–Gong fallback, whose cost grows quickly with
/// size.
const AMBIGUOUS_OPS: usize = 40;
const VIOLATING_OPS: usize = 600;
/// How long one batch may take to retire before its objects count as
/// failed.
const BATCH_TIMEOUT: Duration = Duration::from_secs(30);

/// How an object's history was generated, which fixes its verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Unambiguous,
    Ambiguous,
    Violating,
    /// A verbatim copy, under a new id, of an unambiguous object of an
    /// earlier batch.
    Resent,
}

/// The pre-encoded stream of one run.
pub struct Stream {
    /// Per batch, the bytes each connection sends.
    pub batches: Vec<[Vec<u8>; CONNECTIONS]>,
    /// Per connection, the whole stream with its handshake, for the
    /// in-process passes.
    pub whole: [Vec<u8>; CONNECTIONS],
    pub objects: u64,
    pub ops: u64,
    /// Objects whose histories are built to violate linearizability.
    pub expect_flagged: BTreeSet<u64>,
    pub shapes: Vec<Shape>,
}

fn hello() -> Vec<u8> {
    let mut out = Vec::new();
    encode_record(&Record::Hello { version: VERSION }, &mut out);
    out
}

/// Encodes one object's whole history: register, every event, end.
fn encode_object(object: u64, kind: AdtKind, h: &History, out: &mut Vec<u8>) {
    encode_record(
        &Record::ObjectRegister {
            object,
            kind: Some(kind),
            threads: h.thread_count as u32,
        },
        out,
    );
    for (ts, ev) in h.events.iter().enumerate() {
        let record = match *ev {
            Event::Call(i) => Record::Call {
                object,
                thread: h.ops[i].thread as u32,
                ts: ts as u64,
                name: &h.ops[i].invocation.name,
                args: h.ops[i].invocation.args.clone(),
            },
            Event::Return(i) => Record::Return {
                object,
                thread: h.ops[i].thread as u32,
                ts: ts as u64,
                value: h.ops[i]
                    .response
                    .clone()
                    .expect("generated histories are complete"),
            },
        };
        encode_record(&record, out);
    }
    encode_record(
        &Record::ObjectEnd {
            object,
            stuck: false,
        },
        out,
    );
}

/// The shapes of one batch's objects. Every batch has the same mix, so
/// the cost of a stream does not depend on the seed's draws: mostly
/// value-unambiguous objects, an eighth over pooled duplicate values, an
/// eighth violating by construction, and (after the first batch) an
/// eighth re-sent copies of unambiguous objects of earlier batches.
fn batch_shapes(batch: usize) -> Vec<Shape> {
    let share = BATCH_OBJECTS / 8;
    let mut shapes = vec![Shape::Ambiguous; share];
    shapes.resize(2 * share, Shape::Violating);
    if batch > 0 {
        shapes.resize(3 * share, Shape::Resent);
    }
    shapes.resize(BATCH_OBJECTS, Shape::Unambiguous);
    shapes
}

/// Generates and encodes the run's stream. The seed draws every history,
/// the order of the objects within a batch, and which earlier
/// unambiguous objects are re-sent; kinds rotate through all four ADTs
/// within each shape.
pub fn generate(seed: u64) -> Stream {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut batches = Vec::with_capacity(BATCHES);
    let mut whole: [Vec<u8>; CONNECTIONS] = [hello(), hello()];
    let mut unambiguous: Vec<Vec<u8>> = Vec::new();
    let mut expect_flagged = BTreeSet::new();
    let mut shapes = Vec::new();
    let mut ops = 0u64;
    let mut object = 0u64;
    let mut next_kind = [0usize; 3];
    for batch in 0..BATCHES {
        let earlier = unambiguous.len();
        let mut parts: [Vec<u8>; CONNECTIONS] = Default::default();
        let mut batch_shapes = batch_shapes(batch);
        batch_shapes.shuffle(&mut rng);
        for (slot, shape) in batch_shapes.into_iter().enumerate() {
            object += 1;
            let rotation = match shape {
                Shape::Ambiguous => &mut next_kind[0],
                Shape::Violating => &mut next_kind[1],
                _ => &mut next_kind[2],
            };
            let kind = AdtKind::ALL[*rotation % AdtKind::ALL.len()];
            *rotation += 1;
            let history_seed = rng.gen_range(0..u64::MAX);
            let (bytes, n) = match shape {
                Shape::Resent => (
                    unambiguous[rng.gen_range(0..earlier)].clone(),
                    UNAMBIGUOUS_OPS as u64,
                ),
                _ => {
                    let h = match shape {
                        Shape::Ambiguous => ambiguous_history(kind, AMBIGUOUS_OPS, history_seed),
                        Shape::Violating => violating_history(kind, VIOLATING_OPS, history_seed),
                        _ => unambiguous_history(kind, UNAMBIGUOUS_OPS, history_seed),
                    };
                    let mut bytes = Vec::new();
                    // Encoded under id 0; the id is patched per object below.
                    encode_object(0, kind, &h, &mut bytes);
                    if shape == Shape::Unambiguous {
                        unambiguous.push(bytes.clone());
                    }
                    (bytes, h.ops.len() as u64)
                }
            };
            let bytes = reid(&bytes, object);
            if shape == Shape::Violating {
                expect_flagged.insert(object);
            }
            shapes.push(shape);
            ops += n;
            parts[slot % CONNECTIONS].extend_from_slice(&bytes);
        }
        for (w, p) in whole.iter_mut().zip(&parts) {
            w.extend_from_slice(p);
        }
        batches.push(parts);
    }
    Stream {
        batches,
        whole,
        objects: object,
        ops,
        expect_flagged,
        shapes,
    }
}

/// Re-encodes an object's records under a new object id.
fn reid(bytes: &[u8], object: u64) -> Vec<u8> {
    let mut framed = hello();
    framed.extend_from_slice(bytes);
    let mut reader = FrameReader::new(&framed[..]);
    reader.expect_hello().expect("own encoding has a handshake");
    let mut out = Vec::with_capacity(bytes.len() + 64);
    while let Some(record) = reader.next_record().expect("own encoding decodes") {
        let record = match record {
            Record::ObjectRegister { kind, threads, .. } => Record::ObjectRegister {
                object,
                kind,
                threads,
            },
            Record::Call {
                thread,
                ts,
                name,
                args,
                ..
            } => Record::Call {
                object,
                thread,
                ts,
                name,
                args,
            },
            Record::Return {
                thread, ts, value, ..
            } => Record::Return {
                object,
                thread,
                ts,
                value,
            },
            Record::ObjectEnd { stuck, .. } => Record::ObjectEnd { object, stuck },
            other => other,
        };
        encode_record(&record, &mut out);
    }
    out
}

/// One loopback round, from the first byte sent until every object is
/// retired.
#[derive(Debug, Default)]
pub struct Round {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Per batch: first byte sent until its last object retired.
    pub batch_ms: Vec<f64>,
    /// Per batch: last byte sent until its last object retired.
    pub drain_ms: Vec<f64>,
    pub ops: u64,
    pub failed: u64,
    pub violations: u64,
    pub checks: u64,
    pub windows_closed: u64,
}

/// A server bound to loopback with both client connections accepted.
pub struct Live {
    server: Server,
    conns: Vec<TcpStream>,
}

/// Starts the server and opens the client connections. Returns the
/// server with the time `Server::spawn` took (a set-up cost); waiting for
/// the listener to accept is not counted, it is a poll interval.
pub fn start() -> (Live, f64) {
    let t = Instant::now();
    let server = Server::spawn(ServerConfig {
        tcp: Some("127.0.0.1:0".into()),
        engine: EngineConfig::default(),
        ..ServerConfig::default()
    })
    .expect("bind a loopback listener");
    let spawn_s = t.elapsed().as_secs_f64();
    let addr = server.tcp_addr().expect("tcp address");
    let mut conns = Vec::new();
    for _ in 0..CONNECTIONS {
        let mut c = TcpStream::connect(addr).expect("connect to loopback");
        c.set_nodelay(true).expect("set TCP_NODELAY");
        c.write_all(&hello()).expect("send the handshake");
        conns.push(c);
    }
    let deadline = Instant::now() + BATCH_TIMEOUT;
    while server.engine().snapshot().connections < CONNECTIONS as u64 {
        assert!(
            Instant::now() < deadline,
            "server never accepted the clients"
        );
        thread::sleep(Duration::from_millis(1));
    }
    (Live { server, conns }, spawn_s)
}

/// Streams every batch and waits for each to retire.
pub fn round(live: Live, stream: &Stream) -> Round {
    let Live { server, conns } = live;
    let engine = Arc::clone(server.engine());
    let go = Arc::new(Barrier::new(CONNECTIONS + 1));
    let mut out = Round::default();
    let cpu0 = crate::measure::process_cpu();
    let t0 = Instant::now();
    thread::scope(|s| {
        for (c, mut conn) in conns.into_iter().enumerate() {
            let go = Arc::clone(&go);
            s.spawn(move || {
                for batch in &stream.batches {
                    go.wait();
                    conn.write_all(&batch[c]).expect("stream a batch");
                    go.wait();
                }
                // Dropping the connection ends the server's reader.
            });
        }
        let mut retired = 0u64;
        for _ in &stream.batches {
            let start = Instant::now();
            go.wait();
            go.wait();
            let sent = Instant::now();
            retired += BATCH_OBJECTS as u64;
            let deadline = sent + BATCH_TIMEOUT;
            loop {
                let done = engine.snapshot().objects_finished;
                if done >= retired {
                    break;
                }
                if Instant::now() > deadline {
                    out.failed += retired - done;
                    break;
                }
                thread::sleep(Duration::from_micros(50));
            }
            out.batch_ms.push(start.elapsed().as_secs_f64() * 1e3);
            out.drain_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        }
    });
    out.wall_s = t0.elapsed().as_secs_f64();
    out.cpu_s = (crate::measure::process_cpu() - cpu0).as_secs_f64();
    let snap = engine.snapshot();
    out.ops = snap.counters.ops;
    out.failed += snap.protocol_errors + snap.buffered_ops as u64 + snap.objects_live as u64;
    out.violations = snap.counters.violations;
    out.checks = snap.counters.checks;
    out.windows_closed = snap.counters.windows_closed;
    engine.request_shutdown();
    server.join();
    out
}

/// One record, decoded and owned, for driving shards directly.
enum Owned {
    Register(u64, Option<AdtKind>, u32),
    Call(u64, u32, String, Vec<Value>),
    Return(u64, u32, Value),
    End(u64, bool),
}

fn decode_owned(bytes: &[u8]) -> Vec<Owned> {
    let mut reader = FrameReader::new(bytes);
    reader
        .expect_hello()
        .expect("stream starts with a handshake");
    let mut out = Vec::new();
    while let Some(record) = reader.next_record().expect("own encoding decodes") {
        out.push(match record {
            Record::ObjectRegister {
                object,
                kind,
                threads,
            } => Owned::Register(object, kind, threads),
            Record::Call {
                object,
                thread,
                name,
                args,
                ..
            } => Owned::Call(object, thread, name.to_string(), args),
            Record::Return {
                object,
                thread,
                value,
                ..
            } => Owned::Return(object, thread, value),
            Record::ObjectEnd { object, stuck } => Owned::End(object, stuck),
            other => panic!("unexpected record {other:?} in a generated stream"),
        });
    }
    out
}

/// Drives the stream's records straight into one `Shard` per object,
/// without the engine, and returns the ids of the objects flagged as
/// violating. With a tracer, each `Shard` call is a span.
pub fn direct_shards(stream: &Stream, mut trace: Option<(&mut Tracer, SpanId)>) -> BTreeSet<u64> {
    let config = ShardConfig::default();
    let cache = Arc::new(HistoryCache::new(HistoryCache::<bool>::DEFAULT_SHARDS));
    let ids = trace.as_mut().map(|(tr, parent)| {
        let parent = *parent;
        (
            tr.rollup("shard.new", parent),
            tr.rollup("shard.call", parent),
            tr.rollup("shard.ret", parent),
            tr.rollup("shard.close", parent),
            tr.rollup("shard.end", parent),
        )
    });
    let mut shards: HashMap<u64, Shard> = HashMap::new();
    let mut flagged = BTreeSet::new();
    for whole in &stream.whole {
        for record in decode_owned(whole) {
            let start = Instant::now();
            let span = match record {
                Owned::Register(object, kind, threads) => {
                    let shard =
                        Shard::new(kind, threads, &config).with_verdict_cache(Arc::clone(&cache));
                    shards.insert(object, shard);
                    ids.map(|i| i.0)
                }
                Owned::Call(object, thread, name, args) => {
                    let shard = shards.get_mut(&object).expect("registered object");
                    let start = Instant::now();
                    shard.call(thread, &name, args).expect("well-formed call");
                    if let (Some((tr, _)), Some(i)) = (trace.as_mut(), ids) {
                        tr.add(i.1, start, Instant::now());
                    }
                    None
                }
                Owned::Return(object, thread, value) => {
                    let shard = shards.get_mut(&object).expect("registered object");
                    let before = shard.window_ops();
                    let start = Instant::now();
                    shard.ret(thread, value).expect("well-formed return");
                    let end = Instant::now();
                    if let (Some((tr, _)), Some(i)) = (trace.as_mut(), ids) {
                        tr.add(i.2, start, end);
                        if shard.window_ops() < before {
                            tr.add(i.3, start, end);
                        }
                    }
                    None
                }
                Owned::End(object, stuck) => {
                    let mut shard = shards.remove(&object).expect("registered object");
                    let start = Instant::now();
                    shard.end(stuck);
                    let end = Instant::now();
                    if let (Some((tr, _)), Some(i)) = (trace.as_mut(), ids) {
                        tr.add(i.4, start, end);
                    }
                    if shard.violated() {
                        flagged.insert(object);
                    }
                    None
                }
            };
            if let (Some((tr, _)), Some(id)) = (trace.as_mut(), span) {
                tr.add(id, start, Instant::now());
            }
        }
    }
    flagged
}

/// Ingests the whole stream in process through the public
/// `ingest_stream`, one connection's stream after the other. Returns the
/// engine and the wall time.
pub fn ingest_untraced(stream: &Stream) -> (Engine, f64) {
    let engine = Engine::new(EngineConfig::default());
    let t = Instant::now();
    for whole in &stream.whole {
        ingest_stream(&engine, &whole[..]).expect("own encoding ingests");
    }
    (engine, t.elapsed().as_secs_f64())
}

/// The same ingest as [`ingest_untraced`], with a span around every
/// `FrameReader::next_record` and `Engine::apply` call.
pub fn ingest_traced(stream: &Stream, tr: &mut Tracer, parent: SpanId) -> Engine {
    let engine = Engine::new(EngineConfig::default());
    let decode = tr.rollup("wire.next_record", parent);
    let register = tr.rollup("server.apply_register", parent);
    let call = tr.rollup("server.apply_call", parent);
    let ret = tr.rollup("server.apply_return", parent);
    let end = tr.rollup("server.apply_end", parent);
    for whole in &stream.whole {
        let mut reader = FrameReader::new(BufReader::with_capacity(1 << 16, &whole[..]));
        reader
            .expect_hello()
            .expect("stream starts with a handshake");
        let mut cache = None;
        loop {
            let start = Instant::now();
            let record = reader.next_record().expect("own encoding decodes");
            tr.add(decode, start, Instant::now());
            let Some(record) = record else { break };
            let id = match record {
                Record::ObjectRegister { .. } => register,
                Record::Call { .. } => call,
                Record::Return { .. } => ret,
                _ => end,
            };
            let start = Instant::now();
            engine.apply(record, &mut cache);
            tr.add(id, start, Instant::now());
        }
    }
    engine
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_covers_every_shape() {
        let a = generate(3);
        let b = generate(3);
        assert_eq!(a.whole, b.whole);
        assert_eq!(a.expect_flagged, b.expect_flagged);
        for shape in [
            Shape::Unambiguous,
            Shape::Ambiguous,
            Shape::Violating,
            Shape::Resent,
        ] {
            assert!(a.shapes.contains(&shape), "{shape:?} missing");
        }
        assert_ne!(a.whole, generate(4).whole);
    }

    #[test]
    fn shards_flag_exactly_the_violating_objects() {
        let s = generate(5);
        assert_eq!(direct_shards(&s, None), s.expect_flagged);
    }
}
