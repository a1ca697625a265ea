//! Socket front end: TCP and Unix-socket listeners, one ingest thread
//! per connection, cooperative shutdown via the wire `Shutdown` record.
//!
//! Built on `std::net`/`std::os::unix::net` only. Listeners poll with a
//! short accept timeout (non-blocking accept + sleep) so a shutdown
//! request observed by any connection stops the whole service without
//! signal machinery.

use std::collections::HashMap;
use std::io::{self, BufReader, Read};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use lineup_wire::{FrameReader, Record, WireError};

use crate::engine::{Engine, EngineConfig};

/// How often idle listeners re-check the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Read buffer per connection: large enough that syscalls are not the
/// ingest bottleneck.
const READ_BUF: usize = 1 << 16;

/// Service configuration.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// TCP listen address, e.g. `127.0.0.1:7117`; `None` disables TCP.
    pub tcp: Option<String>,
    /// Unix-socket path; `None` disables the Unix listener.
    pub unix: Option<PathBuf>,
    /// Engine (and per-shard) tuning.
    pub engine: EngineConfig,
}

/// A running monitoring service.
#[derive(Debug)]
pub struct Server {
    engine: Arc<Engine>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    listeners: Vec<thread::JoinHandle<()>>,
    live_connections: Arc<AtomicU64>,
}

impl Server {
    /// Binds the configured listeners and starts accepting.
    pub fn spawn(config: ServerConfig) -> io::Result<Server> {
        let engine = Arc::new(Engine::new(config.engine));
        let live_connections = Arc::new(AtomicU64::new(0));
        let mut listeners = Vec::new();
        let mut tcp_addr = None;

        if let Some(addr) = &config.tcp {
            let listener = TcpListener::bind(addr.as_str())?;
            listener.set_nonblocking(true)?;
            tcp_addr = Some(listener.local_addr()?);
            let engine = Arc::clone(&engine);
            let live = Arc::clone(&live_connections);
            listeners.push(
                thread::Builder::new()
                    .name("lineup-accept-tcp".into())
                    .spawn(move || accept_loop_tcp(listener, engine, live))?,
            );
        }

        if let Some(path) = &config.unix {
            // A stale socket file from a previous run would fail the bind.
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            let engine = Arc::clone(&engine);
            let live = Arc::clone(&live_connections);
            listeners.push(
                thread::Builder::new()
                    .name("lineup-accept-unix".into())
                    .spawn(move || accept_loop_unix(listener, engine, live))?,
            );
        }

        Ok(Server {
            engine,
            tcp_addr,
            unix_path: config.unix,
            listeners,
            live_connections,
        })
    }

    /// The shared engine (for snapshots and programmatic shutdown).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The bound TCP address (with the OS-assigned port when the config
    /// asked for port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Connections currently being served.
    pub fn live_connections(&self) -> u64 {
        self.live_connections.load(Ordering::SeqCst)
    }

    /// Blocks until shutdown is requested and all listeners and
    /// connections have drained, then removes the Unix socket file.
    pub fn join(self) {
        for handle in self.listeners {
            let _ = handle.join();
        }
        while self.live_connections.load(Ordering::SeqCst) > 0 {
            thread::sleep(ACCEPT_POLL);
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn accept_loop_tcp(listener: TcpListener, engine: Arc<Engine>, live: Arc<AtomicU64>) {
    let workers: Arc<Mutex<Vec<thread::JoinHandle<()>>>> = Arc::default();
    while !engine.shutdown_requested() {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                spawn_connection(&workers, &engine, &live, stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
    join_workers(&workers);
}

fn accept_loop_unix(listener: UnixListener, engine: Arc<Engine>, live: Arc<AtomicU64>) {
    let workers: Arc<Mutex<Vec<thread::JoinHandle<()>>>> = Arc::default();
    while !engine.shutdown_requested() {
        match listener.accept() {
            Ok((stream, _)) => spawn_connection(&workers, &engine, &live, stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
    join_workers(&workers);
}

fn spawn_connection<S: Read + Send + 'static>(
    workers: &Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
    engine: &Arc<Engine>,
    live: &Arc<AtomicU64>,
    stream: S,
) {
    engine.note_connection();
    live.fetch_add(1, Ordering::SeqCst);
    let engine = Arc::clone(engine);
    let worker_live = Arc::clone(live);
    let handle = thread::Builder::new()
        .name("lineup-conn".into())
        .spawn(move || {
            if let Err(e) = serve_connection(&engine, stream) {
                engine.note_protocol_error();
                eprintln!("lineup-server: connection error: {e}");
            }
            worker_live.fetch_sub(1, Ordering::SeqCst);
        });
    match handle {
        Ok(handle) => workers.lock().unwrap().push(handle),
        Err(_) => {
            live.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn join_workers(workers: &Arc<Mutex<Vec<thread::JoinHandle<()>>>>) {
    let drained: Vec<_> = std::mem::take(&mut *workers.lock().unwrap());
    for handle in drained {
        let _ = handle.join();
    }
}

/// Ingests one stream: handshake, then demux every record until EOF or
/// `Shutdown`. Used by both socket connections and `--replay` files.
///
/// Object ids are unique only within their stream (every
/// `StreamRecorder` numbers its objects from 1), so each stream gets its
/// own id namespace: its objects are registered with the engine under
/// fresh engine-wide ids, and two connections never share a shard.
pub fn serve_connection<S: Read>(engine: &Engine, stream: S) -> Result<(), WireError> {
    let mut reader = FrameReader::new(BufReader::with_capacity(READ_BUF, stream));
    reader.expect_hello()?;
    let mut cache = None;
    let mut ids = StreamIds::default();
    while let Some(record) = reader.next_record()? {
        let is_shutdown = matches!(record, Record::Shutdown);
        match ids.translate(engine, record) {
            Some(record) => engine.apply(record, &mut cache),
            // An event or end for an object this stream has not
            // registered (or already ended).
            None => engine.note_protocol_error(),
        }
        if is_shutdown {
            break;
        }
    }
    Ok(())
}

/// One stream's object-id namespace: its live objects' stream ids mapped
/// to the engine ids they were registered under.
#[derive(Debug, Default)]
struct StreamIds {
    live: HashMap<u64, u64>,
    /// The last translation: consecutive records on one object skip the
    /// map, so only registers and object switches pay for a lookup.
    last: Option<(u64, u64)>,
}

impl StreamIds {
    /// `record` with its object id moved into the engine's namespace;
    /// `None` when it names an object the stream has no live registration
    /// for. Re-registering a live id keeps its engine id, so the engine
    /// replaces that object's generation as it would for one stream.
    fn translate<'a>(&mut self, engine: &Engine, record: Record<'a>) -> Option<Record<'a>> {
        Some(match record {
            Record::ObjectRegister {
                object,
                kind,
                threads,
            } => {
                let id = *self
                    .live
                    .entry(object)
                    .or_insert_with(|| engine.alloc_object_id());
                self.last = Some((object, id));
                Record::ObjectRegister {
                    object: id,
                    kind,
                    threads,
                }
            }
            Record::Call {
                object,
                thread,
                ts,
                name,
                args,
            } => Record::Call {
                object: self.lookup(object)?,
                thread,
                ts,
                name,
                args,
            },
            Record::Return {
                object,
                thread,
                ts,
                value,
            } => Record::Return {
                object: self.lookup(object)?,
                thread,
                ts,
                value,
            },
            Record::ObjectEnd { object, stuck } => {
                if self.last.is_some_and(|(s, _)| s == object) {
                    self.last = None;
                }
                Record::ObjectEnd {
                    object: self.live.remove(&object)?,
                    stuck,
                }
            }
            other @ (Record::Hello { .. } | Record::Shutdown) => other,
        })
    }

    fn lookup(&mut self, object: u64) -> Option<u64> {
        match self.last {
            Some((s, id)) if s == object => Some(id),
            _ => {
                let id = *self.live.get(&object)?;
                self.last = Some((object, id));
                Some(id)
            }
        }
    }
}

/// Convenience for tests and benches: serve a single in-memory or file
/// stream into a standalone engine.
pub fn ingest_stream<S: Read>(engine: &Engine, stream: S) -> Result<(), WireError> {
    serve_connection(engine, stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lineup::{AdtKind, Value};
    use lineup_wire::StreamRecorder;
    use std::io::Write;
    use std::net::TcpStream;

    fn queue_stream(ops: i64) -> Vec<u8> {
        let buf = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let rec = StreamRecorder::to_writer(Box::new(Shared(Arc::clone(&buf)))).unwrap();
        let obj = rec.alloc_object();
        rec.register(obj, Some(AdtKind::Queue), 1).unwrap();
        for i in 0..ops {
            rec.call(obj, 0, "Enqueue", &[Value::Int(i)]).unwrap();
            rec.ret(obj, 0, &Value::Unit).unwrap();
        }
        for i in 0..ops {
            rec.call(obj, 0, "TryDequeue", &[]).unwrap();
            rec.ret(obj, 0, &Value::some(Value::int(i))).unwrap();
        }
        rec.end(obj, false).unwrap();
        rec.flush().unwrap();
        let out = buf.lock().unwrap().clone();
        out
    }

    /// Two streams that both number their object 1 get distinct engine
    /// ids; a stream's events reach only objects it registered and has
    /// not ended.
    #[test]
    fn streams_have_separate_object_namespaces() {
        let engine = Engine::new(EngineConfig::default());
        let register = |object| Record::ObjectRegister {
            object,
            kind: Some(AdtKind::Queue),
            threads: 1,
        };
        let call = |object| Record::Call {
            object,
            thread: 0,
            ts: 0,
            name: "TryDequeue",
            args: Vec::new(),
        };
        let engine_id = |r: Option<Record<'_>>| match r {
            Some(Record::ObjectRegister { object, .. } | Record::Call { object, .. }) => {
                Some(object)
            }
            Some(Record::ObjectEnd { object, .. }) => Some(object),
            _ => None,
        };
        let (mut a, mut b) = (StreamIds::default(), StreamIds::default());
        let a1 = engine_id(a.translate(&engine, register(1))).unwrap();
        let b1 = engine_id(b.translate(&engine, register(1))).unwrap();
        assert_ne!(a1, b1);
        assert_eq!(engine_id(a.translate(&engine, call(1))), Some(a1));
        assert_eq!(engine_id(b.translate(&engine, call(1))), Some(b1));
        assert_eq!(
            engine_id(a.translate(&engine, call(2))),
            None,
            "unregistered"
        );
        // Re-registering a live id keeps its engine id.
        assert_eq!(engine_id(a.translate(&engine, register(1))), Some(a1));
        let end = Record::ObjectEnd {
            object: 1,
            stuck: false,
        };
        assert_eq!(engine_id(a.translate(&engine, end.clone())), Some(a1));
        assert_eq!(engine_id(a.translate(&engine, call(1))), None, "ended");
        assert_eq!(engine_id(a.translate(&engine, end)), None, "ended twice");
        assert_eq!(engine_id(b.translate(&engine, call(1))), Some(b1));
    }

    #[test]
    fn in_memory_stream_ingests_cleanly() {
        let engine = Engine::new(EngineConfig::default());
        ingest_stream(&engine, &queue_stream(100)[..]).unwrap();
        let snap = engine.snapshot();
        assert_eq!(snap.counters.ops, 200);
        assert_eq!(snap.counters.violations, 0);
        assert_eq!(snap.objects_finished, 1);
        assert_eq!(snap.objects_live, 0);
    }

    #[test]
    fn tcp_round_trip_with_shutdown() {
        let server = Server::spawn(ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.tcp_addr().unwrap();
        let engine = Arc::clone(server.engine());

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&queue_stream(50)).unwrap();
        let mut shutdown = Vec::new();
        lineup_wire::encode_record(&lineup_wire::Record::Shutdown, &mut shutdown);
        stream.write_all(&shutdown).unwrap();
        drop(stream);

        server.join();
        let snap = engine.snapshot();
        assert_eq!(snap.counters.ops, 100);
        assert_eq!(snap.counters.violations, 0);
        assert_eq!(snap.connections, 1);
    }
}
