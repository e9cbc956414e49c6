//! Keyed single-flight rendezvous, shared by the engine's builds, reloads
//! and mutation children (`Flights<CloudKey, ()>`) and the wire's same-key
//! query coalescing (`Flights<(u64, String), NetReply>`, keyed by the
//! session cloud's digest and the command line).
//!
//! The first caller to [`Flights::join`] a key leads; later callers of the
//! same key park until the leader publishes a value. The leader removes its
//! key *before* publishing, so a caller arriving after that starts a fresh
//! flight. A [`Lease`] dropped without publishing (an error return or a
//! panic unwinding through the leader) publishes the map's abandon value,
//! so a dead leader can never wedge its followers.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

/// The open flights, one per key, and the value a dropped lease publishes.
pub(crate) struct Flights<K, V> {
    open: Mutex<HashMap<K, Arc<Flight<V>>>>,
    abandoned: V,
}

/// One open flight: the leader's published value and the followers' condvar.
struct Flight<V> {
    value: Mutex<Option<V>>,
    published: Condvar,
}

/// How a [`Flights::join`] call took part in its key's flight.
pub(crate) enum Join<'a, K: Eq + Hash + Clone, V: Clone> {
    /// The caller leads and must publish through the lease (or drop it).
    Lead(Lease<'a, K, V>),
    /// The caller followed: the leader's value, or `None` when the
    /// follower's deadline passed first.
    Follow(Option<V>),
}

/// The leader's obligation to publish; see the module docs.
pub(crate) struct Lease<'a, K: Eq + Hash + Clone, V: Clone> {
    flights: &'a Flights<K, V>,
    key: Option<K>,
    flight: Arc<Flight<V>>,
}

impl<K: Eq + Hash + Clone, V: Clone> Flights<K, V> {
    /// An empty map whose dropped leases publish `abandoned`.
    pub(crate) fn new(abandoned: V) -> Self {
        Self { open: Mutex::new(HashMap::new()), abandoned }
    }

    /// Leads `key`'s flight when none is open; otherwise parks until its
    /// leader publishes or `deadline` passes (never, for `None`).
    pub(crate) fn join(&self, key: K, deadline: Option<Instant>) -> Join<'_, K, V> {
        let flight = {
            let mut open = self.open.lock();
            match open.get(&key) {
                Some(flight) => Arc::clone(flight),
                None => {
                    let flight =
                        Arc::new(Flight { value: Mutex::new(None), published: Condvar::new() });
                    open.insert(key.clone(), Arc::clone(&flight));
                    return Join::Lead(Lease { flights: self, key: Some(key), flight });
                }
            }
        };
        let mut value = flight.value.lock();
        while value.is_none() {
            match deadline {
                None => flight.published.wait(&mut value),
                Some(at) => {
                    if flight.published.wait_until(&mut value, at).timed_out() {
                        break;
                    }
                }
            }
        }
        Join::Follow(value.clone())
    }

    /// Whether `key` has an open flight.
    #[cfg(test)]
    pub(crate) fn is_open(&self, key: &K) -> bool {
        self.open.lock().contains_key(key)
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Lease<'_, K, V> {
    /// Closes the flight and hands `value` to every follower.
    pub(crate) fn publish(mut self, value: V) {
        self.settle(value);
    }

    fn settle(&mut self, value: V) {
        let Some(key) = self.key.take() else { return };
        self.flights.open.lock().remove(&key);
        *self.flight.value.lock() = Some(value);
        self.flight.published.notify_all();
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Drop for Lease<'_, K, V> {
    fn drop(&mut self) {
        if self.key.is_some() {
            self.settle(self.flights.abandoned.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A leader that drops its lease without publishing hands its parked
    /// follower the abandon value, and the closed key leads afresh.
    #[test]
    fn dropped_lease_hands_followers_the_abandon_value() {
        let flights: Flights<u32, &str> = Flights::new("aborted");
        let Join::Lead(lease) = flights.join(7, None) else { panic!("the first join must lead") };
        std::thread::scope(|s| {
            let follower = s.spawn(|| match flights.join(7, None) {
                Join::Follow(value) => value,
                Join::Lead(_) => panic!("an open key must be followed"),
            });
            // Drop once the follower holds the flight (map, lease and
            // follower each own one reference), not after a guessed sleep.
            while Arc::strong_count(&lease.flight) < 3 {
                assert!(!follower.is_finished(), "the follower returned before parking");
                std::thread::yield_now();
            }
            drop(lease);
            assert_eq!(follower.join().unwrap(), Some("aborted"));
        });
        assert!(!flights.is_open(&7));
        assert!(matches!(flights.join(7, None), Join::Lead(_)), "a closed key must lead again");
    }
}
